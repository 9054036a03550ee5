"""Every src function has a caller on a small CLI pass, or is listed here.

The pass runs ``racbox list``, every experiment at small parameters (one run
under each ``--interval``, one from a ``--config`` file) and ``verify
--rebuild`` of each manifest, all under ``sys.setprofile``.  The functions it
never enters must equal NEVER_ENTERED, and that list may only shrink: a new
function needs a caller on the pass, and one that gains a caller leaves the
list.  Functions are keyed by AST-derived qualified names, since
``co_qualname`` needs Python 3.11.
"""

import ast
import os
import sys

import racbox
from racbox.cli import main

SRC = os.path.dirname(os.path.realpath(racbox.__file__))

NEVER_ENTERED = set("""
boxes:AsymmetricCell.__post_init__
boxes:AsymmetricCell.as_table
boxes:BoxTable.__post_init__
boxes:BoxTable.correlators
boxes:BoxTable.win_probabilities
boxes:Cell.as_table
boxes:Cell.conditional_tables
boxes:ExplicitCell.__post_init__
boxes:ExplicitCell.as_table
boxes:IsotropicCell.__post_init__
boxes:IsotropicCell.as_table
boxes:QuantumPhiCell.__post_init__
boxes:QuantumPhiCell.as_table
boxes:box_from_win_probabilities
boxes:make_isotropic
boxes:no_signaling_check
boxes:pr_box
estimation:ScoreReport.__post_init__
estimation:symmetric_score_estimate
protocols:PyramidBatch.parity_identity_holds
protocols:PyramidBatch.per_query_counts
protocols:PyramidBatch.success_count
protocols:PyramidBatch.successes
protocols:PyramidProtocol.__post_init__
protocols:PyramidProtocol.n_inputs
protocols:PyramidProtocol.uniform
protocols:_cell_tables
protocols:_node_tables
protocols:_path_levels
protocols:_sample
protocols:_tree_levels
protocols:pyramid_monte_carlo
scores:asym_exact_score
scores:conditional_score_from_records
""".split())

CONFIG_FILE = """\
[defaults]
seed = 7
interval = cp

[benchmark]
n_max = 6
"""
SMALL_PROBES = ("--episodes", "2000", "--grid", "ms=1", "--grid", "packed=1x8", "--grid", "snrs=1")

RUNS = {  # output folder -> racbox run arguments
    "table1": ("table1",),
    "table3": ("table3",),
    "depth-scan": ("depth-scan", "--n-max", "10"),
    "bias-scan": ("bias-scan", "--grid", "points=11"),
    "phase-boundary": ("phase-boundary", "--n-max", "10"),
    "capacity-phase": ("capacity-phase", "--n-max", "10"),
    "capacity-sanity": ("capacity-sanity", "--episodes", "2000"),
    "clopper-pearson": ("capacity-sanity", "--interval", "cp", *SMALL_PROBES),
    "hoeffding": ("capacity-sanity", "--interval", "hoeffding", *SMALL_PROBES),
    "ablations": ("ablations", "--grid", "seeds=1", "--grid", "steps=200", "--grid", "ms=1"),
    "visibility": ("visibility", "--grid", "points=9"),
    "benchmark": ("benchmark",),
    "angle-opt": ("angle-opt", "--grid", "penalties=0,0.2,5"),
}


def _src_functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) of every function defined in src -> module:qualname."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                module = os.path.splitext(os.path.basename(path))[0]
                found[(path, first, child.name)] = f"{module}:{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            with open(path) as fh:
                visit(ast.parse(fh.read()), path, "")
    return found


def _cli_pass(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(CONFIG_FILE)
    assert main(["list"]) == 0
    manifests = []
    for folder, argv in {**RUNS, "config": ("benchmark", "--config", str(ini))}.items():
        out = str(tmp_path / folder)
        assert main(["run", *argv, "--workers", "1", "--out", out]) == 0, argv
        manifests.append(os.path.join(out, argv[0], "manifest.json"))
    for manifest in manifests:
        assert main(["verify", "--rebuild", manifest]) == 0, manifest


def test_every_src_function_is_entered_or_listed(tmp_path, capsys):
    # a cached function is entered on a miss only, so no earlier test may warm it
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "racbox":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        _cli_pass(tmp_path)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    functions = _src_functions()
    keys = {(os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
            for code in entered if not code.co_name.startswith("<")}
    ours = {key for key in keys if os.path.dirname(key[0]) == SRC}
    assert ours <= functions.keys()  # the AST keys match the code objects
    never = {name for key, name in functions.items() if key not in ours}
    assert never == NEVER_ENTERED, (sorted(never - NEVER_ENTERED),
                                    sorted(NEVER_ENTERED - never))
