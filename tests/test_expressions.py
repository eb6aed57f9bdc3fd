import numpy as np
import pytest

from safeprob.errors import ConfigError
from safeprob.expressions import compile_matrix, compile_scalar, compile_vector


class TestScalarExpressions:
    def test_arithmetic(self):
        fn = compile_scalar("2*x1 + 3", 1)
        np.testing.assert_allclose(fn([[2.0]]), [7.0])

    def test_caret_means_power(self):
        fn = compile_scalar("x1^2 - x2^2", 2)
        np.testing.assert_allclose(fn([[3.0, 2.0]]), [5.0])

    def test_functions_and_constants(self):
        fn = compile_scalar("sin(pi/2) + exp(0) + tanh(0) + cos(0)", 1)
        np.testing.assert_allclose(fn([[0.0]]), [3.0])

    def test_norm(self):
        fn = compile_scalar("1 - norm(x1, x2)^2", 2)
        np.testing.assert_allclose(fn([[0.6, 0.8]]), [0.0], atol=1e-15)

    def test_unary_minus_and_division(self):
        fn = compile_scalar("-x1 / 4", 1)
        np.testing.assert_allclose(fn([[2.0]]), [-0.5])

    def test_vectorized_over_batch(self):
        fn = compile_scalar("x1 * x2", 2)
        X = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 9.0]])
        np.testing.assert_allclose(fn(X), [2.0, 12.0, 0.0])

    def test_constant_broadcasts(self):
        fn = compile_scalar("1.5", 2)
        np.testing.assert_allclose(fn(np.zeros((4, 2))), [1.5] * 4)

    def test_numeric_literal_accepted_directly(self):
        fn = compile_scalar(2, 1)
        np.testing.assert_allclose(fn([[5.0]]), [2.0])


class TestRejection:
    def test_unknown_variable(self):
        with pytest.raises(ConfigError, match="unknown variable"):
            compile_scalar("x3", 2)

    def test_unknown_function(self):
        with pytest.raises(ConfigError, match="unknown function"):
            compile_scalar("log(x1)", 1)

    def test_attribute_access_blocked(self):
        with pytest.raises(ConfigError):
            compile_scalar("x1.__class__", 1)

    def test_subscript_blocked(self):
        with pytest.raises(ConfigError):
            compile_scalar("x1[0]", 1)

    def test_comparison_blocked(self):
        with pytest.raises(ConfigError):
            compile_scalar("x1 < 2", 1)

    def test_string_literal_blocked(self):
        with pytest.raises(ConfigError):
            compile_scalar("'abc'", 1)

    @pytest.mark.parametrize("expr", ["x1 + True", "False"])
    def test_boolean_literal_blocked(self, expr):
        # bool is an int subclass, so True would otherwise read as 1.
        with pytest.raises(ConfigError, match="only numeric literals allowed"):
            compile_scalar(expr, 1)

    def test_syntax_error_reported(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            compile_scalar("2 +", 1)

    def test_norm_needs_arguments(self):
        with pytest.raises(ConfigError, match="norm"):
            compile_scalar("norm()", 1)


class TestVectorAndMatrix:
    def test_vector_shape(self):
        fn = compile_vector(["x1", "x2", "x1 + x2"], 2)
        out = fn(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(out, [[1, 2, 3], [3, 4, 7]])

    def test_matrix_shape(self):
        fn = compile_matrix([["1", "0"], ["x1", "x2"]], 2)
        out = fn(np.array([[5.0, 7.0]]))
        np.testing.assert_allclose(out[0], [[1, 0], [5, 7]])

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ConfigError, match="rectangular"):
            compile_matrix([["1", "0"], ["x1"]], 2)
