"""circlelab: desk-scale circle-method computations for a cubic-quadric pair.

Core objects: exact integer forms (`forms`), the smooth bump weight
(`weightfn`), solution enumeration and weighted counts (`counting`), Weyl
and complete exponential sums with Poisson reconstruction (`expsums`), arc
dissection (`arcs`), p-adic densities and the singular series
(`localdens`), the singular integral (`archimedean`), and Weyl-differencing diagnostics (`weyldiag`).
"""

from .forms import (
    CubicForm,
    FormPair,
    QuadraticForm,
    Signature,
    eval_cubic,
    eval_quadratic,
    gradient,
    h_parameter,
    hypothesis_report,
    signature_quadratic,
    smooth_point_test,
)
from .weightfn import Weight
from .counting import count_weighted, enumerate_solutions
from .expsums import (
    RationalApprox,
    complete_sum,
    osc_integral,
    poisson_reconstruct,
    theta_height,
    weyl_sum_direct,
    weyl_sums,
)
from .arcs import major_arc_measure, major_arc_test, q3q2, simultaneous_approx
from .localdens import (
    a_of_q,
    hensel_stable,
    q_factorization,
    singular_series_truncated,
)
from .archimedean import singular_integral_truncated
from .weyldiag import alpha3_witness, count_bilinear, heights_from_sum, minor_arc_scan
from .util import CapExceededError, InvariantError

__version__ = "0.1.0"
