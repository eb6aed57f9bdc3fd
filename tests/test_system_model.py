import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safeprob import (
    BarrierProblem,
    ControlSystem,
    Policy,
    check_cbf_constraint,
    linear_rate,
    make_example,
    validate_barrier,
)
from safeprob.errors import InfeasibilityError, ShapeError
from safeprob.system_model import closed_loop_control_batch, d_phi_batch, lie_g

from conftest import const_system_1d, identity_barrier, quadratic_barrier, zero_nominal


class TestGeneratorDrift:
    def test_quadratic_barrier_noise_only(self):
        sys = const_system_1d(0.0, 1.0, 1.0)
        bar = quadratic_barrier()
        assert d_phi_batch(sys, bar, [[1.0]], [[0.0]])[0] == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_barrier_with_input(self):
        sys = const_system_1d(0.0, 1.0, 1.0)
        bar = quadratic_barrier()
        assert d_phi_batch(sys, bar, [[1.0]], [[1.0]])[0] == pytest.approx(3.0, abs=1e-12)

    def test_linear_barrier_hessian_term_vanishes(self):
        sys = const_system_1d(0.0, 1.0, 0.5)
        bar = identity_barrier()
        for x in (-2.0, 0.3, 5.0):
            assert d_phi_batch(sys, bar, [[x]], [[-1.0]])[0] == pytest.approx(-1.0, abs=1e-12)

    def test_dimension_mismatch_raises(self):
        sys = const_system_1d(0.0, 1.0, 1.0)
        bar = identity_barrier()
        with pytest.raises(ShapeError):
            d_phi_batch(sys, bar, [[1.0, 2.0]], [[0.0]])

    def test_affine_in_input(self):
        sys = const_system_1d(0.7, 2.0, 1.3)
        bar = quadratic_barrier()
        X = [[0.8]] * 3
        base, one, other = d_phi_batch(sys, bar, X, [[0.0], [1.0], [2.5]])
        assert other == pytest.approx(base + 2.5 * (one - base), abs=1e-10)


def _min_norm_oracle(nominal: float, slack: float, lg: float) -> float:
    """Grid search: closest u to the nominal with lg*u >= -slack - base."""
    grid = np.arange(-6.0, 6.0, 1e-3)
    feasible = grid[lg * grid >= -slack]
    return float(feasible[np.argmin(np.abs(feasible - nominal))])


class TestZeroCbfFilter:
    def _setup(self, nominal_value):
        sys = const_system_1d(0.0, 1.0, 0.5)
        bar = identity_barrier()
        policy = Policy(nominal=lambda X: np.full(X.shape[:-1] + (1,), nominal_value),
                        kind="zero_cbf", alpha=linear_rate(1.0))
        return sys, bar, policy

    def test_active_filter_matches_grid_search(self):
        sys, bar, policy = self._setup(-3.0)
        U, infeasible = closed_loop_control_batch(policy, sys, bar, [[1.0]])
        assert not infeasible[0]
        # d_phi(x, u) = u here, so the constraint is u >= -phi(1) = -1.
        assert U[0, 0] == pytest.approx(-1.0, abs=1e-9)
        assert U[0, 0] == pytest.approx(_min_norm_oracle(-3.0, 1.0, 1.0), abs=2e-3)

    def test_inactive_filter_passes_nominal(self):
        sys, bar, policy = self._setup(2.0)
        U, _ = closed_loop_control_batch(policy, sys, bar, [[1.0]])
        assert U[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_infeasible_state_raises(self):
        sys = const_system_1d(-5.0, 0.0, 0.5)  # no actuation at all
        bar = identity_barrier()
        policy = Policy(nominal=zero_nominal(1), kind="zero_cbf")
        with pytest.raises(InfeasibilityError) as err:
            check_cbf_constraint(policy, sys, bar, [0.5])
        assert "0.5" in str(err.value)

    def test_batch_flags_infeasible_rows(self):
        sys = const_system_1d(-5.0, 0.0, 0.5)
        bar = identity_barrier()
        policy = Policy(nominal=zero_nominal(1), kind="zero_cbf")
        _, infeasible = closed_loop_control_batch(policy, sys, bar, [[0.5], [100.0]])
        assert infeasible.tolist() == [True, False]

    def test_constraint_check_after_filter(self):
        sys, bar, policy = self._setup(-3.0)
        assert check_cbf_constraint(policy, sys, bar, [1.0])

    def test_constraint_check_inactive(self):
        sys, bar, policy = self._setup(2.0)
        assert check_cbf_constraint(policy, sys, bar, [1.0])

    def test_constraint_check_requires_zero_cbf(self):
        sys = const_system_1d(-5.0, 1.0, 0.5)
        bar = identity_barrier()
        policy = Policy(nominal=zero_nominal(1), kind="none")
        with pytest.raises(ValueError):
            check_cbf_constraint(policy, sys, bar, [1.0])

    @settings(max_examples=100, deadline=None)
    @given(x=st.floats(-5, 5), nominal=st.floats(-10, 10), gamma=st.floats(0.1, 10))
    def test_filter_always_satisfies_constraint(self, x, nominal, gamma):
        sys = const_system_1d(0.3, 1.0, 0.5)
        bar = identity_barrier()
        policy = Policy(nominal=lambda X: np.full(X.shape[:-1] + (1,), nominal),
                        kind="zero_cbf", alpha=linear_rate(gamma))
        U, infeasible = closed_loop_control_batch(policy, sys, bar, [[x]])
        assert not infeasible[0]
        assert d_phi_batch(sys, bar, [[x]], U)[0] >= -gamma * x - 1e-9


    def test_filter_evaluates_gradient_and_g_once(self):
        ex = make_example("double_integrator")
        calls = {"grad_phi": 0, "g": 0}

        def counted(name, fn):
            def wrapper(X):
                calls[name] += 1
                return fn(X)
            return wrapper

        sys = dataclasses.replace(ex.system, g=counted("g", ex.system.g))
        bar = dataclasses.replace(ex.barrier,
                                  grad_phi=counted("grad_phi", ex.barrier.grad_phi))
        X = np.array([[0.5, 0.4], [0.9, 0.3], [-0.2, -0.7]])
        U, infeasible = closed_loop_control_batch(ex.policy, sys, bar, X)
        assert calls == {"grad_phi": 1, "g": 1}
        want, _ = closed_loop_control_batch(ex.policy, ex.system, ex.barrier, X)
        np.testing.assert_array_equal(U, want)
        assert not infeasible.any()


class TestGradientPolicy:
    def test_direct_formula(self):
        sys = const_system_1d(0.0, 1.0, 0.5)
        bar = identity_barrier()
        policy = Policy(nominal=zero_nominal(1), kind="gradient",
                        c=lambda X: np.ones(X.shape[:-1]))
        U, _ = closed_loop_control_batch(policy, sys, bar, [[0.3]])
        assert U[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_requires_gain(self):
        with pytest.raises(ValueError):
            Policy(nominal=zero_nominal(1), kind="gradient")

    def test_negative_gain_rejected(self):
        sys = const_system_1d(0.0, 1.0, 0.5)
        bar = identity_barrier()
        policy = Policy(nominal=zero_nominal(1), kind="gradient",
                        c=lambda X: np.full(X.shape[:-1], -1.0))
        with pytest.raises(ValueError):
            closed_loop_control_batch(policy, sys, bar, [[0.3]])

    @settings(max_examples=100, deadline=None)
    @given(x=st.floats(-3, 3), c=st.floats(0, 5), gain=st.floats(-2, 2))
    def test_generator_increment_is_c_lg_squared(self, x, c, gain):
        sys = const_system_1d(0.2, gain, 0.7)
        bar = quadratic_barrier()
        policy = Policy(nominal=zero_nominal(1), kind="gradient",
                        c=lambda X: np.full(X.shape[:-1], c))
        U, _ = closed_loop_control_batch(policy, sys, bar, [[x]])
        lg = lie_g(sys, bar, [[x]])[0]
        with_u, without = d_phi_batch(sys, bar, [[x], [x]], np.vstack([U, [[0.0]]]))
        increment = with_u - without
        assert increment == pytest.approx(c * float(lg @ lg), abs=1e-9)
        assert increment >= -1e-9


class TestEvaluatorContracts:
    def test_repeated_evaluation_is_bit_identical(self):
        sys = const_system_1d(0.3, 1.5, 0.8)
        bar = quadratic_barrier()
        X = np.linspace(-2, 2, 17)[:, None]
        for fn in (sys.f_at, sys.g_at, sys.sigma_at, bar.phi_at, bar.grad_at, bar.hess_at):
            a = np.asarray(fn(X))
            b = np.asarray(fn(X))
            assert np.array_equal(a, b)

    def test_bad_shape_from_evaluator(self):
        broken = ControlSystem(n=2, m=1, k=1,
                               f=lambda X: np.zeros((X.shape[0], 3)),
                               g=lambda X: np.zeros((X.shape[0], 2, 1)),
                               sigma=lambda X: np.zeros((X.shape[0], 2, 1)))
        with pytest.raises(ShapeError, match="returned shape"):
            broken.f_at([[0.0, 0.0]])

    # Every evaluator entry point takes stacked (B, n) states only.
    BATCH_ONLY = {
        "f_at": lambda ex, x: ex.system.f_at(x),
        "g_at": lambda ex, x: ex.system.g_at(x),
        "sigma_at": lambda ex, x: ex.system.sigma_at(x),
        "phi_at": lambda ex, x: ex.barrier.phi_at(x),
        "grad_at": lambda ex, x: ex.barrier.grad_at(x),
        "hess_at": lambda ex, x: ex.barrier.hess_at(x),
        "nominal_at": lambda ex, x: ex.policy.nominal_at(x, ex.system.m),
        "c_at": lambda ex, x: ex.policy.c_at(x),
        "lie_g": lambda ex, x: lie_g(ex.system, ex.barrier, x),
        "d_phi_batch": lambda ex, x: d_phi_batch(ex.system, ex.barrier, x,
                                                 np.zeros((1, ex.system.m))),
        "closed_loop_control_batch":
            lambda ex, x: closed_loop_control_batch(ex.policy, ex.system, ex.barrier, x),
    }

    @pytest.mark.parametrize("name", list(BATCH_ONLY))
    def test_single_state_raises_shape_error(self, name):
        ex = make_example("unicycle_disk")
        x = np.array([0.1, -0.2, 0.3])
        with pytest.raises(ShapeError, match=r"shape \(3,\), expected \(B, (3|n)\)"):
            self.BATCH_ONLY[name](ex, x)
        self.BATCH_ONLY[name](ex, x[None])

    def test_positive_dims_required(self):
        with pytest.raises(ValueError):
            ControlSystem(n=0, m=1, k=1, f=lambda x: x, g=lambda x: x,
                          sigma=lambda x: x)


class TestBarrierValidation:
    def test_validate_barrier_accepts_consistent(self):
        probes = np.linspace(-2, 2, 9)[:, None]
        validate_barrier(identity_barrier(), probes)
        # x^2 - 1 has its gradient vanish only at the origin, off its zero
        # level set x = +-1, so it validates cleanly.
        shifted = BarrierProblem(phi=lambda X: X[..., 0] ** 2 - 1.0,
                                 grad_phi=lambda X: 2.0 * X,
                                 hess_phi=lambda X: np.full(X.shape[:-1] + (1, 1), 2.0))
        validate_barrier(shifted, probes)

    def test_validate_barrier_rejects_wrong_gradient(self):
        bad = BarrierProblem(phi=lambda X: X[..., 0] ** 2,
                             grad_phi=lambda X: 3.0 * X,  # wrong scale
                             hess_phi=lambda X: np.full(X.shape[:-1] + (1, 1), 3.0))
        with pytest.raises(ValueError, match="inconsistent"):
            validate_barrier(bad, np.array([[1.0]]))

    def test_validate_barrier_rejects_vanishing_gradient_on_level_set(self):
        flat = BarrierProblem(phi=lambda X: X[..., 0] ** 2,
                              grad_phi=lambda X: 2.0 * X,
                              hess_phi=lambda X: np.full(X.shape[:-1] + (1, 1), 2.0))
        with pytest.raises(ValueError, match="vanishes"):
            validate_barrier(flat, np.array([[0.0]]))

    def test_validate_barrier_rejects_asymmetric_hessian(self):
        bad = BarrierProblem(
            phi=lambda X: X[..., 0] * X[..., 1],
            grad_phi=lambda X: np.stack([X[..., 1], X[..., 0]], axis=-1),
            hess_phi=lambda X: np.tile(np.array([[0.0, 1.0], [0.5, 0.0]]),
                                       X.shape[:-1] + (1, 1)))
        with pytest.raises(ValueError, match="symmetric"):
            validate_barrier(bad, np.array([[1.0, 1.0]]))
