"""Malformed input through the CLI: a result or exit 64 with one line, never a traceback."""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from c2alg import cli
from c2alg.verify import MAX_CASES

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# JSON scalars a hand-written or corrupted file may hold
json_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10 ** 30, 10 ** 30),
    st.floats(),
    st.text(alphabet="0123456789-/.eE ab", max_size=12),
    st.sampled_from(["1/0", "1e9999999", "-1e-9999999", "nan", "inf", "3/4", "-1/2"]),
)
small_float = st.floats(-2, 2, allow_nan=False)


def _square(n, entry):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n).map(
        lambda entries: {"rows": n, "cols": n, "entries": entries})


def _diagonal(n, values):
    return st.lists(values, min_size=n, max_size=n).map(lambda diag: {
        "rows": n, "cols": n,
        "entries": [[diag[i] if i == j else [0, 0] for j in range(n)] for i in range(n)]})


matrix_json = st.one_of(
    # shapes and entries of any kind
    st.fixed_dictionaries({
        "rows": st.one_of(st.integers(-2, 4), json_scalar),
        "cols": st.one_of(st.integers(-2, 4), json_scalar),
        "entries": st.one_of(
            json_scalar,
            st.lists(st.lists(st.one_of(st.lists(json_scalar, max_size=3), json_scalar),
                              max_size=4), max_size=4)),
    }),
    # well-shaped matrices: random (rarely orthogonal or unitary) entries, and
    # diagonal ones that often are
    st.integers(1, 4).flatmap(lambda n: _square(n, st.lists(small_float, min_size=2,
                                                             max_size=2))),
    st.integers(1, 4).flatmap(lambda n: _diagonal(n, st.sampled_from(
        [[1, 0], [-1, 0], [0, 1], [0, -1], [2, 0], [0, 0], ["1/0", 0], [float("nan"), 0]]))),
    json_scalar,
)

pontryagin_json = st.one_of(
    st.fixed_dictionaries({
        "dim": st.one_of(st.integers(-8, 60), json_scalar),
        "pontryagin": st.one_of(
            st.dictionaries(st.text(alphabet="0123456789,- ", max_size=6), json_scalar,
                            max_size=4),
            st.lists(json_scalar, max_size=2),
            json_scalar),
    }),
    st.sampled_from([{"dim": 8, "pontryagin": {"1,1": "18/1", "2": "9/1"}},
                     {"dim": 4, "pontryagin": {"1": "3/1"}},
                     {"dim": 4, "pontryagin": {"1": 3}}]),
    json_scalar,
)

file_text = st.one_of(
    st.one_of(matrix_json, pontryagin_json).map(json.dumps),
    st.text(max_size=40),
)

signature = st.one_of(
    st.builds("{},{}".format, st.integers(-2, 18), st.integers(-2, 18)),
    st.sampled_from(["99999999999999999999,0", "2", "a,b", "", "2,0,1", " 1 , 1 "]),
    st.text(alphabet="0123456789,- ", max_size=8),
)
expression = st.one_of(
    st.text(alphabet="e0123456789+-*/()i .", min_size=1, max_size=30),
    st.sampled_from(["3/4*e1e3 + i*e2 - 1/2", "e2e1", "e17", "e0", "(e1", "1/0", "e1e1"]),
)

# --cases values: negatives and counts above the cap of any size, a few
# mackey cases, and non-integers
case_count = st.one_of(
    st.integers(-10 ** 30, -1).map(str),
    st.integers(MAX_CASES + 1, 10 ** 30).map(str),
    st.integers(0, 3).map(str),
    st.sampled_from(["abc", "", "1.5", "1e3", "-0", "+2", " 2 ", "-x", "9" * 5000]),
)


def _check(capsys, argv):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in {0, 1, 2, 64}
    assert "Traceback" not in err
    if code == 64:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
    return code


@FUZZ
@given(st.sampled_from([["spin-lift", "--matrix"], ["phi-lift", "--unitary"]]),
       st.one_of(matrix_json.map(json.dumps), file_text), st.booleans())
def test_lift_commands(capsys, tmp_path, command, text, as_json):
    path = tmp_path / "matrix.json"
    path.write_text(text, encoding="utf-8")
    _check(capsys, [*command, str(path)] + (["--json"] if as_json else []))


@FUZZ
@given(st.one_of(pontryagin_json.map(json.dumps), file_text), st.booleans())
def test_ahat_pontryagin(capsys, tmp_path, text, as_json):
    path = tmp_path / "pontryagin.json"
    path.write_text(text, encoding="utf-8")
    _check(capsys, ["ahat", "--pontryagin", str(path)] + (["--json"] if as_json else []))


@FUZZ
@given(st.sampled_from(["mul", "conj", "star"]), signature, expression, expression,
       st.booleans())
def test_clifford_expressions(capsys, operation, sig, a, b, as_json):
    argv = ["clifford", operation, "--signature", sig, "--a", a, "--b", b]
    _check(capsys, argv + (["--json"] if as_json else []))


@FUZZ
@given(case_count, st.booleans())
def test_verify_case_counts(capsys, cases, as_json):
    argv = ["verify", "--suite", "mackey", "--cases", cases]
    code = _check(capsys, argv + (["--json"] if as_json else []))
    try:
        count = int(cases)
    except ValueError:
        count = None
    if count is None or not 0 <= count <= MAX_CASES:
        assert code == 64
