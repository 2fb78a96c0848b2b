"""Simulator of a five-channel continuous-variable error-correcting code.

An input optical mode is spread over five channels by a fixed beam-splitter
network fed with four squeezed ancillas.  A stochastic displacement on any
single channel is located from the homodyne syndrome pattern and removed by
feedforward; two of the five channels never carry the input, so their errors
need no correction at all.  The package provides an exact symbolic route for
every algebraic identity, one numeric model (the linear maps of
``code.PipelineMaps``) for closed-form statistics, and a seeded batched
Monte-Carlo engine, plus a CLI that regenerates the headline tables.
"""

from .exact import (ExactScalar, LinearForm, ModeForm, QuadSymbol,
                    form_apply_matrix, form_covariance, form_variance,
                    mode_forms_apply_matrix, sqrt_of, symbol_variance)
from .gaussian import (GaussianState, NonPhysicalStateError, SymplecticOp,
                       apply, beamsplitter_symplectic, db_to_r, db_to_variance,
                       fidelity_gaussian, fidelity_from_moments, join,
                       loss_channel, omega, sample, squeezed_vacuum,
                       variance_to_db, VACUUM_VAR)
from .network import (BeamSplitterElement, ENCODER_SPEC, ModeMatrix,
                      NetworkSpec, SwapElement, compose, element_matrix,
                      encoder_matrix, inverse, lift_to_symplectic)
from .errors import ErrorConfig, ErrorEvent, ErrorLaw, MixtureState
from .code import (AMBIGUOUS_P, CHANNEL, ClassificationResult, CodeConfig,
                   CorrectionPlan, CorrectionUnavailable, DecodedState,
                   EncodedState, NO_ERROR, OutputStats, RoundsOutcome,
                   RoundsSummary, SyndromeRecord, UNCLASSIFIABLE,
                   apply_correction, classify,
                   closed_form_output, correction_plan, decode,
                   derive_correction_plan, encode, inject_error, output_mixture,
                   run_rounds, summarize_reports, syndrome_closed_form,
                   syndrome_trace)
from .witness import (WitnessResult, combination_value, evaluate_witness,
                      optimize_gains)

__version__ = "0.1.0"
