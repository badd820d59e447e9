"""Entanglement and discord dynamics of GHZ registers under Pauli noise.

The package follows one pipeline: prepare an N-qubit GHZ state
(:func:`ghz_state`), evolve it under a Markovian Pauli or isotropic
channel (closed forms via :func:`closed_form_state`, independent RK4
integration via :func:`evolve_numeric`), then quantify what survives:
concurrence lower bounds (:func:`tau_lower_bound`,
:func:`tau_generator_bound`), the partial-transpose witness
(:func:`ppt_min_eigenvalue`), and global quantum discord
(:func:`global_discord` optimised over measurement frames, closed forms
via :func:`analytic_gqd`).  Every numeric route has an analytic twin so
results can be cross-checked; :func:`run_checks` runs the full battery.
"""

from types import ModuleType as _ModuleType

from .channels import (Channel, ChannelCoefficients, closed_form_spectrum, closed_form_state, coefficients,
                       evolve_numeric, ghz_ket, ghz_state, lindblad_generator)
from .discord import (DiscordResult, analytic_gqd, bipartite_discord, dephase, global_discord,
                      measurement_basis, projector, sudden_change_point, uniform_frame, x_frame, y_frame,
                      z_frame)
from .entanglement import (CutTerm, CutTermSet, TauResult, analytic_tau, cut_terms, ppt_min_eigenvalue,
                           pure_concurrence, tau_generator_bound, tau_lower_bound, tau_vanishing_time)
from .linalg import (MAX_QUBITS, assert_density_matrix, num_qubits, partial_trace, partial_transpose,
                     permute_qubits, shannon_entropy, trace_distance, von_neumann_entropy)
from .sweep import CSV_HEADER, SweepConfig, SweepRecord, emit_csv, emit_plot_script, run_sweep
from .verify import CheckResult, format_report, run_checks

__version__ = "0.1.0"

# The public names are the ones imported above; the submodules themselves are not exported.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType)) + ["__version__"]
