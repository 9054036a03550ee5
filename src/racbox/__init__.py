"""Random-access coding over CHSH-type correlation boxes.

Exact information scores for one-bit random-access protocols built from
no-signaling correlation cells, together with finite-sample estimators,
interface-capacity accounting, controlled leakage ablations, and a CLI that
reproduces every table and figure of the accompanying experiment suite.
"""

from .ablation import (AblationReport, BottleneckNet, TrainConfig, episode_weights_control,
                       eval_score, precision_packing_control, query_leaky_control,
                       train_strict)
from .boxes import (BoxTable, Cell, CorrelatorSet, AsymmetricCell, ExplicitCell,
                    IsotropicCell, QuantumPhiCell, SignalingBoxError, TSIRELSON_BIAS,
                    TSIRELSON_CHSH, box_from_correlators, box_from_win_probabilities,
                    chsh_value, effective_iso_bias, iso_bias_from_angle, make_isotropic,
                    no_signaling_check, pr_box, quantum_phi_correlators,
                    random_no_signaling_box, twirl)
from .capacity import (AwgnBpsk, HardBits, InterfaceModel, PackedPrecision, ProbeResult,
                       Qubits, awgn_hard_decision_score, bpsk_mutual_information,
                       capacity_certificate, gaussian_cdf, run_awgn_bpsk_probe,
                       run_hard_copy_probe, run_packed_precision_probe)
from .estimation import (ConfidenceInterval, ContingencyTable, ScoreReport,
                         binomial_interval, clopper_pearson_interval, hoeffding_interval,
                         normal_quantile, per_query_symmetric_score, plugin_mi,
                         score_interval_transform, symmetric_score_estimate, wilson_interval)
from .info import (Bits, Probability, binary_channel_information, binary_entropy,
                   bernoulli_kl, bsc_information, entropy_deficit)
from .protocols import (PyramidBatch, PyramidProtocol, asym_path_success,
                        brute_force_one_bit_optimum, classical_avg_success_closed_form,
                        majority_average_success, majority_encode, pyramid_monte_carlo,
                        pyramid_success_closed_form)
from .rng import substream
from .scores import (ConditionalScoreReport, CriticalityResult, asym_exact_score,
                     closed_form_score, conditional_score_from_records, critical_bias,
                     critical_bias_asymptotic, critical_constant, exact_conditional_score,
                     optimize_regularized_angle, regularized_angle_utility,
                     score_lower_bound_from_accuracy)

__version__ = "0.1.0"
