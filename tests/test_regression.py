"""Fast regression pin of one converged multi-level solve.

Couette flow, N=16, M=4, two levels (orders 2 and 4, minus-two), solved to
the preset tolerance from the uniform equilibrium start.  The iteration
count and the converged density, tangential velocity and temperature
profiles were recorded from the solver before its defect terms were
batched; a change that only claims speed must reproduce them.
"""

import numpy as np

from momentmg import ReductionStrategy, SmootherConfig, couette_config, derived_moments, solve

K_EXPECTED = 13
RHO = [
    1.0119470964174675, 1.007602516014756, 1.003453696832205,
    0.9998369928927991, 0.9968913054657483, 0.9946647703634877,
    0.993174959757415, 0.9924286726040717, 0.9924286722062495,
    0.9931749585782141, 0.9946647684434605, 0.9968913028687458,
    0.9998369897067096, 1.0034536931801998, 1.0076025120845014,
    1.0119470925839706,
]
U2 = [
    0.26077707852574433, 0.3028103811230399, 0.34993181836052817,
    0.3993410736607879, 0.44979431665537895, 0.500733622877718,
    0.551905315894476, 0.6031906713287334, 0.6545092485993736,
    0.7057946050004128, 0.7569662999100875, 0.8079056089230766,
    0.858358855572377, 0.9077681153563849, 0.9548895578568383,
    0.9969228666385842,
]
THETA = [
    1.0640775586855407, 1.0697658954549683, 1.0751237337577917,
    1.0796614065432815, 1.083306463605736, 1.0860411660822138,
    1.0878632303238311, 1.088773894598056, 1.0887738954887183,
    1.08786323296469, 1.086041170383477, 1.0833064694256813,
    1.0796614136937501, 1.075123742003238, 1.0697659044979546,
    1.064077568126393,
]
PROFILE_TOL = 1e-10


def test_couette_two_level_iterations_and_profiles():
    cfg = couette_config(N=16, M=4, levels=2, strategy=ReductionStrategy.MINUS_TWO)
    field, grid, src, walls = cfg.build()
    result = solve(field, grid, src, walls, cfg.plan(), tol=cfg.tol, max_iters=100,
                   cfg=SmootherConfig(cfl=cfg.cfl))
    assert result.converged
    assert len(result.history) == K_EXPECTED
    macros = [derived_moments(c) for c in result.field.cells]
    np.testing.assert_allclose([m.rho for m in macros], RHO, rtol=0, atol=PROFILE_TOL)
    np.testing.assert_allclose([m.u[1] for m in macros], U2, rtol=0, atol=PROFILE_TOL)
    np.testing.assert_allclose([m.theta for m in macros], THETA, rtol=0, atol=PROFILE_TOL)
