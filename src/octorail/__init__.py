"""Octo-Rail Lattice toolkit: exact splitter-network algebra, teleported
Gaussian gates, mode-permutation bookkeeping, macronode lattices, GKP codes,
and surface-code memory experiments."""

from .exact import ExactCoeff, ExactMatrix, solve_exact
from .gates import (FOURIER, AngleSolution, DegenerateMeasurementError,
                    GATE_TABLES, NonImplementableGateError, TeleportedGate,
                    displacement_mu, induced_gate, solve_angles,
                    teleported_gate_v, verify_gate_tables)
from .gkp import (Encoding, Grid, GridWavefunction, LogicalAction,
                  MagicProbeResult, SqueezingLevel, custom_encoding,
                  db_conversion, decompose_rpr, default_grid,
                  fidelity, fine_grid,
                  fourier_wavefunction, heterodyne_magic_probe,
                  hexagonal_encoding, knill_oracle, knill_step,
                  logical_action, magic_probe_single,
                  make_gaussian_wavepacket, make_qunaught, p_error,
                  p_error_tail_oracle, rectangular_encoding, square_encoding,
                  transform_angles, transpose_map)
from .lattice import (LatticeSpec, MacronodeGraph, build_lattice,
                      coords_to_index, index_to_coords, neighbors, rhg_view,
                      surface_layout, wiring_variant)
from .memory import MemoryResult, gkp_bin, memory_experiment, wilson_interval
from .networks import (EIGHTSPLITTER_SIGNS, SplitterNetwork, build_network,
                       cancel_layer, check_layer_commutation, layer_matrix,
                       verify_eightsplitter, x_block)
from .permutations import (GENERATORS, ModePermutation, basis_transform,
                           cosets, generate_allowed, is_allowed,
                           transform_basis)
from .phasespace import (GaussianState, SymplecticMap, identity_map,
                         make_beamsplitter, make_cz, make_rotation,
                         make_shear, make_squeeze)
from .surface import (MeasurementBasis, basis_preset,
                      derive_quadrature_relations, extract_stabilizer,
                      stabilizer_combination, verify_regrouping,
                      verify_relation)

__version__ = "0.1.0"
