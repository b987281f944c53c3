"""Two-hop air relay link analysis with a position-switching receiver array:
finite-blocklength error rates, Monte Carlo validation, and energy-efficiency
optimization under a reliability constraint."""

__version__ = "0.1.0"

from .blercore import (FblParams, TrajectoryEvaluator, avg_bler_hop1,
                       avg_bler_hop2, avg_bler_hop2_asymptotic,
                       chebyshev_nodes, fbl_rate, instantaneous_bler,
                       linearize)
from .chanmodel import FasSpectrum, eigen_spectrum, fas_spectrum, jakes_matrix
from .errors import (CausalityError, ConfigError, DegenerateGeometryError,
                     FasRelayError, MonotonicityError, SnrScaleError,
                     TableAccuracyError)
from .geometry import ScenarioConfig
from .mcoracle import (McConfig, McEstimate, mc_average_bler,
                       sample_fas_gain_model, sample_fas_gain_physical)
from .optimizer import (EeConfig, EeSolution, best_port_count,
                        energy_efficiency, global_optimize, min_power)

__all__ = [
    "__version__",
    "FblParams", "TrajectoryEvaluator", "avg_bler_hop1", "avg_bler_hop2",
    "avg_bler_hop2_asymptotic", "chebyshev_nodes", "fbl_rate",
    "instantaneous_bler", "linearize",
    "FasSpectrum", "eigen_spectrum", "fas_spectrum", "jakes_matrix",
    "CausalityError", "ConfigError", "DegenerateGeometryError",
    "FasRelayError", "MonotonicityError", "SnrScaleError",
    "TableAccuracyError",
    "ScenarioConfig",
    "McConfig", "McEstimate", "mc_average_bler", "sample_fas_gain_model",
    "sample_fas_gain_physical",
    "EeConfig", "EeSolution", "best_port_count", "energy_efficiency",
    "global_optimize", "min_power",
]
