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
                    form_apply_matrix, mode_forms_apply_matrix, sqrt_of)
from .gaussian import (VACUUM_VAR, db_to_r, fidelity_from_moments,
                       variance_to_db)
from .network import (BeamSplitterElement, ENCODER_SPEC, compose, element_matrix,
                      encoder_matrix, inverse, lift_to_symplectic)
from .errors import ErrorConfig, ErrorLaw
from .code import (AMBIGUOUS_P, CODE_NAMES, CodeConfig, NO_ERROR, OUT_POS,
                   PLANS, RoundsOutcome, RoundsSummary, UNCLASSIFIABLE,
                   closed_form_output, decode, encode, inject_error,
                   output_mixture, run_rounds, summarize_reports, syndrome_trace)
from .montecarlo import Fold, run_chunked_rounds
from .witness import (WitnessResult, combination_value, evaluate_witness,
                      optimize_gains)

__version__ = "0.1.0"
