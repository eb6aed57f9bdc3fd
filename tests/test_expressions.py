import json

import numpy as np
import pytest

from safeprob.cli import main
from safeprob.errors import ConfigError
from safeprob.expressions import MAX_DEPTH, compile_expressions

from conftest import CONFIG_DIR


def compile_scalar(expr, n):
    return compile_expressions(expr, n, (), "barrier.phi")


# States at which every form below is finite.
X3 = np.array([[0.5, -2.0, 1.5], [-1.25, 0.75, 3.0], [2.0, 0.1, -0.4]])
x1, x2, x3 = X3[:, 0], X3[:, 1], X3[:, 2]


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

    # Each expression against its numpy form written out by hand: the
    # evaluator must apply the same ufuncs in the same order, bit for bit.
    @pytest.mark.parametrize("expr, expected", [
        ("x1 + x2", np.add(x1, x2)),
        ("x1 - x3", np.subtract(x1, x3)),
        ("x2 * x3", np.multiply(x2, x3)),
        ("x3 / x2", np.divide(x3, x2)),
        ("x3 ^ 2", np.power(x3, 2.0)),
        ("abs(x3) ** 0.5 * x1", np.multiply(np.power(np.abs(x3), 0.5), x1)),
        ("-x1", -x1),
        ("+x2", +x2),
        ("- -x3 + 1", np.add(-(-x3), 1.0)),
        ("pi * x1", np.multiply(np.pi, x1)),
        ("e ^ x2", np.power(np.e, x2)),
        ("2.5e-1 - x1 / 3", np.subtract(0.25, np.divide(x1, 3.0))),
        ("sin(x1)", np.sin(x1)),
        ("cos(x2)", np.cos(x2)),
        ("exp(x3)", np.exp(x3)),
        ("tanh(x1)", np.tanh(x1)),
        ("sqrt(abs(x2))", np.sqrt(np.abs(x2))),
        ("abs(x1 - x3)", np.abs(np.subtract(x1, x3))),
        ("norm(x1)", np.sqrt(0 + np.square(x1))),
        ("norm(x1, x2)", np.sqrt(0 + np.square(x1) + np.square(x2))),
        ("norm(x1, x2, x3)", np.sqrt(0 + np.square(x1) + np.square(x2) + np.square(x3))),
        ("1 - norm(x1, x2)^2",
         np.subtract(1.0, np.power(np.sqrt(0 + np.square(x1) + np.square(x2)), 2.0))),
        ("cos(x3) * sin(pi / 4)", np.multiply(np.cos(x3), np.sin(np.divide(np.pi, 4.0)))),
    ])
    def test_matches_handwritten_numpy(self, expr, expected):
        out = compile_scalar(expr, 3)(X3)
        assert out.shape == (3,)
        assert np.array_equal(out, np.broadcast_to(expected, (3,)))


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

    def test_null_byte_reported(self):
        # Python versions differ in the error a null byte raises.
        with pytest.raises(ConfigError, match="cannot parse"):
            compile_scalar("x1\x00", 1)

    def test_norm_needs_arguments(self):
        with pytest.raises(ConfigError, match=r"norm\(\) takes one or more arguments, got 0"):
            compile_scalar("norm()", 1)

    def test_function_needs_its_argument(self):
        with pytest.raises(ConfigError, match=r"sin\(\) takes one argument, got 0"):
            compile_scalar("sin()", 1)

    def test_second_argument_rejected_before_evaluation(self):
        # numpy would read x2 as the ``out`` array and overwrite the states.
        X = np.array([[0.5, 2.0], [1.0, 3.0]])
        with pytest.raises(ConfigError, match=r"sin\(\) takes one argument, got 2"):
            compile_scalar("sin(x1, x2)", 2)(X)
        assert np.array_equal(X, [[0.5, 2.0], [1.0, 3.0]])

    @pytest.mark.parametrize("expr", ["1e999", "x1 + 1e999*0", "-1e999", "1" + "0" * 400])
    def test_literal_must_be_finite(self, expr):
        with pytest.raises(ConfigError, match="is not finite"):
            compile_scalar(expr, 1)

    # 2000 levels pass the parser and would overflow the compiler; 5000 and
    # a 3000-term sum overflow the parser itself.
    @pytest.mark.parametrize("expr", ["-" * 2000 + "x1", "-" * 5000 + "x1",
                                      "+".join(["x1"] * 3000), "-" * (MAX_DEPTH + 1) + "x1"])
    def test_deep_nesting_refused_at_its_key(self, expr):
        with pytest.raises(ConfigError, match=r"nested too deeply \(over \d+ levels\) in "
                                              r"expression .*\(at config key 'barrier.phi'\)$"):
            compile_scalar(expr, 1)

    def test_long_expression_is_quoted_short(self):
        with pytest.raises(ConfigError) as err:
            compile_scalar("x1 + " * 20 + "log(x1)", 1)
        assert str(err.value) == ("unknown function 'log' in expression "
                                  f"{('x1 + ' * 12)!r}… (107 characters) "
                                  "(at config key 'barrier.phi')")
        with pytest.raises(ConfigError, match=r"in expression '2 \+' \(at config key"):
            compile_scalar("2 +", 1)

    def test_deep_expression_error_is_one_short_stderr_line(self, tmp_path, capsys):
        deep = "-" * 10_000 + "x1"
        config = json.loads((CONFIG_DIR / "drifted_bm_exit.json").read_text())
        config["barrier"] = {"phi": deep}
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(config))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert len(line) < 200
        assert "nested too deeply" in line and "(10002 characters)" in line
        assert line.endswith("(at config key 'barrier.phi')")

    def test_deepest_expression_that_compiles_evaluates(self):
        X = np.array([[0.5, -2.0]])
        fn = compile_scalar("-" * (MAX_DEPTH - 1) + "x1 + x2", 2)
        np.testing.assert_array_equal(fn(X), [(-1) ** (MAX_DEPTH - 1) * 0.5 - 2.0])


class TestVectorAndMatrix:
    def test_vector_shape(self):
        fn = compile_expressions(["x1", "x2", "x1 + x2"], 2, (3,), "system.f")
        out = fn(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(out, [[1, 2, 3], [3, 4, 7]])

    def test_matrix_shape(self):
        fn = compile_expressions([["1", "0"], ["x1", "x2"]], 2, (2, 2), "system.g")
        out = fn(np.array([[5.0, 7.0]]))
        np.testing.assert_allclose(out[0], [[1, 0], [5, 7]])

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ConfigError, match=r"length 2 \(at config key 'system\.g\[1\]'\)"):
            compile_expressions([["1", "0"], ["x1"]], 2, (2, 2), "system.g")

    @pytest.mark.parametrize("exprs, shape, pointer", [
        # A short list must not broadcast, nor a long one be cut.
        (["x1"], (2,), "system.f"),
        (["x1", "x2", "0"], (2,), "system.f"),
        ([["1", "0"]], (2, 2), "system.f"),
        (["1", "0"], (2, 2), "system.f[0]"),
        ("x1", (2,), "system.f"),
        (["x1", ["x2"]], (2,), "system.f[1]"),
        (["x1"], (), "system.f"),
    ])
    def test_shape_must_match_exactly(self, exprs, shape, pointer):
        with pytest.raises(ConfigError) as err:
            compile_expressions(exprs, 2, shape, "system.f")
        assert err.value.pointer == pointer

    def test_item_error_names_its_index(self):
        with pytest.raises(ConfigError) as err:
            compile_expressions([["1", "0"], ["x1", "sin()"]], 2, (2, 2), "system.g")
        assert err.value.pointer == "system.g[1][1]"
        assert "in expression 'sin()'" in str(err.value)
