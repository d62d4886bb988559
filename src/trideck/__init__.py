"""trideck: k-decks (higher-order autocorrelations), bispectra and
reconstruction of nonnegative functions on Z/nZ and on sampled grids of R.
"""

__version__ = "0.1.0"

from .cyclic import (Bispectrum, CyclicFunction, KDeck, Spectrum, bispectrum,
                     bispectrum_from_deck, canonical_rotation, deck_equal,
                     dft, equal_up_to_translation, k_deck,
                     three_deck_fft, translate)
from .cyclotomic import (ClassificationError, StructureCase, ZeroPattern,
                         classify_zero_pattern, cyclotomic, periodicity,
                         spectrum_zero_exact, zero_set)
from .determinacy import (AllKVerdict, CounterexamplePair, DeterminacyReport,
                          SurveyResult, exhaustive_determinacy,
                          gm_counterexample, survey_zero_proportion,
                          verify_all_k_uniqueness)
from .errors import (BudgetError, DomainError, InconsistentBispectrumError,
                     InvalidExponentsError, ShapeMismatchError, TrideckError)
from .intervals import (GapProfile, IntervalSet, gap_functional, gap_profile,
                        partial_x_deck, translate_equal_sets,
                        triple_correlation_exact)
from .realline import (GridDeck, NormTestResult, SampledFunction,
                       StabilityReport, continuity_probe, cos_pair, deck_at,
                       indicator_stability_check, norm_inequality_test,
                       riesz_pair, sample_interval_indicator,
                       shift_scan_distance, three_deck_grid)
from .reconstruct import (PhaseAssignment, ReconstructionReport, Uniqueness,
                          magnitudes_from_bispectrum, propagate_phases,
                          reconstruct_from_deck, solutions_pq)

__all__ = [name for name in dir() if not name.startswith("_")]
