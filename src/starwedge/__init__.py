"""starwedge: twist-deformed coordinate algebras on the Rindler wedge and the
corrected thermal spectrum seen by a uniformly accelerated observer.

The symbolic layer (exact expressions, differential and tensor-leg operators,
twists, star products) lives next to a numeric layer (complex gamma,
real-axis oscillatory quadrature, spectrum closed forms); each closed-form result has an
independent oracle beside it.
"""

from .diffop import (
    BidiffOp,
    Chart,
    ChartMismatchError,
    DiffOp,
    MINKOWSKI,
    RINDLER,
    lorentz_generator,
    momentum_generator,
    wedge,
)
from .expr import (
    Bindings,
    ComplexRational,
    Expr,
    I,
    ONE,
    ZERO,
    cosh,
    differentiate,
    equality_probe,
    eval_numeric,
    exp,
    free_symbols,
    simplify,
    sinh,
    substitute,
    summands,
    sym,
    tanh,
)
from .gammafn import GammaPoleError, complex_gamma
from .grammar import ParseError, parse, to_text
from .quadrature import QuadratureResult, mode_integral
from .rindler import MetricPullback, RindlerMap, inverse_map_numeric
from .spectrum import (
    DeformedPowerPoint,
    GridFrequencyError,
    ModeParams,
    SpectrumResult,
    compute_spectrum,
    correction_terms,
    deformed_f_theta,
    deformed_power,
    f_closed,
    f_quadrature,
    hawking_temperature,
    mode_closed,
    mode_quadrature,
    planck_power,
)
from .starprod import (
    CommutatorTable,
    build_table,
    commutator,
    expected_flat_table,
    star,
    verify_flat_relations,
)
from .twists import (
    CanonicalTwist,
    LieTwist,
    LinearTwist,
    QuadraticTwist,
    TwistSpec,
    TwistSpecError,
    WEDGE_NORMALIZATION,
    build_linear_twist,
)

__version__ = "0.1.0"
