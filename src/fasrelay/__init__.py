"""Two-hop air relay link analysis with a position-switching receiver array:
finite-blocklength error rates, Monte Carlo validation, and energy-efficiency
optimization under a reliability constraint."""

__version__ = "0.1.0"

from .blercore import (BlerBreakdown, FblParams, TrajectoryBler,
                       avg_bler_hop1, avg_bler_hop2, avg_bler_hop2_asymptotic,
                       chebyshev_nodes, e2e_bler, error_floor, fbl_rate,
                       instantaneous_bler, linearize, mixture_bler,
                       trajectory_avg_bler)
from .chanmodel import (FasSpectrum, cdf_hop1, cdf_hop2, eigen_spectrum,
                        fas_spectrum, jakes_matrix)
from .errors import (CausalityError, ConfigError, DegenerateGeometryError,
                     FasRelayError, MonotonicityError, TableAccuracyError)
from .geometry import (LinkState, ScenarioConfig, elevation_angle, link_state,
                       los_probability, path_loss_coeff, slant_ranges)
from .mcoracle import (McConfig, McEstimate, mc_average_bler,
                       sample_fas_gain_model, sample_fas_gain_physical,
                       sample_hop1_gain)
from .optimizer import (EeConfig, EeSolution, best_port_count,
                        energy_efficiency, global_optimize, min_power)

__all__ = [
    "__version__",
    "BlerBreakdown", "FblParams", "TrajectoryBler", "avg_bler_hop1",
    "avg_bler_hop2", "avg_bler_hop2_asymptotic", "chebyshev_nodes",
    "e2e_bler", "error_floor", "fbl_rate", "instantaneous_bler", "linearize",
    "mixture_bler", "trajectory_avg_bler",
    "FasSpectrum", "cdf_hop1", "cdf_hop2", "eigen_spectrum", "fas_spectrum",
    "jakes_matrix",
    "CausalityError", "ConfigError", "DegenerateGeometryError",
    "FasRelayError", "MonotonicityError", "TableAccuracyError",
    "LinkState", "ScenarioConfig", "elevation_angle", "link_state",
    "los_probability", "path_loss_coeff", "slant_ranges",
    "McConfig", "McEstimate", "mc_average_bler", "sample_fas_gain_model",
    "sample_fas_gain_physical", "sample_hop1_gain",
    "EeConfig", "EeSolution", "best_port_count", "energy_efficiency",
    "global_optimize", "min_power",
]
