"""Random-access coding over CHSH-type correlation boxes.

Exact information scores for one-bit random-access protocols built from
no-signaling correlation cells, together with finite-sample estimators,
interface-capacity accounting, controlled leakage ablations, and a CLI that
reproduces every table and figure of the accompanying experiment suite.
"""

from .ablation import (AblationReport, BottleneckNet, TrainConfig, episode_weights_control,
                       eval_score, precision_packing_control, query_leaky_control,
                       train_strict)
from .boxes import (BoxTable, Cell, AsymmetricCell, ExplicitCell,
                    IsotropicCell, QuantumPhiCell, SignalingBoxError, TSIRELSON_BIAS,
                    box_from_win_probabilities, chsh_value, iso_bias_from_angle,
                    make_isotropic, no_signaling_check, pr_box, quantum_phi_correlators,
                    twirl)
from .capacity import (ProbeResult, awgn_hard_decision_score, bpsk_mutual_information,
                       probe_interface, run_awgn_bpsk_probe, run_hard_copy_probe,
                       run_packed_precision_probe)
from .estimation import (ConfidenceInterval, ScoreReport,
                         binomial_interval, clopper_pearson_interval, hoeffding_interval,
                         normal_quantile, per_query_symmetric_score, plugin_mi,
                         score_interval_transform, symmetric_score_estimate, wilson_interval)
from .info import Bits, Probability, binary_entropy, entropy_deficit, gaussian_cdf
from .protocols import (PyramidBatch, PyramidProtocol, classical_avg_success_closed_form,
                        pyramid_monte_carlo)
from .rng import substream
from .scores import (ConditionalScoreReport, CriticalityResult, asym_exact_score,
                     closed_form_score, conditional_score_from_records, critical_bias,
                     critical_bias_asymptotic, critical_constant, exact_scores,
                     optimize_regularized_angle, regularized_angle_utility)

__version__ = "0.1.0"
