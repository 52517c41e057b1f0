"""Expression catalog, quantum evaluation, reports and the file format.

Frozen quantum targets (binding A = z, B = x unless stated):

  cabello_ch          w 1/4      ghz 1/2
  cabello_ch_literal  w 1/4      ghz 1/2   (same five probabilities drive it)
  cabello_ch_fixed    w -5/12    ghz 0
  mermin              w 3        ghz 4
  eq13                w 4        ghz 4
  eq14                w 5        ghz 4

The w values follow from the all-z distribution (1/3 on each two-minus
outcome) and the zx correlators +-2/3; the ghz values from the uniform
quarter weights and the zxx correlators -1.  chsh on the singlet reaches
magnitude 2 sqrt 2 at the standard quarter-turn settings.
"""
import math

import pytest

import bell3q.expressions
from bell3q import (
    Binding,
    ConfigError,
    ContractViolationError,
    CorrelatorTerm,
    ExpressionFormatError,
    Observable,
    ProbabilityTerm,
    SettingScheme,
    Term,
    BellExpression,
    catalog,
    catalog_ids,
    classical_bounds,
    evaluate_report,
    format_expression,
    format_term,
    ghz,
    parse_expression_text,
    quantum_value,
    resolve_expression,
    singlet,
    strategy_value,
    term_breakdown,
    w,
)

from conftest import zx_binding

EXPECTED_TERM_COUNTS = {
    "cabello_ch": 5,
    "cabello_ch_literal": 4,
    "cabello_ch_fixed": 4,
    "mermin": 4,
    "eq13": 7,
    "eq14": 7,
    "chsh": 4,
    "ch": 4,
}

ZX_VALUES = {
    "cabello_ch": (0.25, 0.5),
    "cabello_ch_literal": (0.25, 0.5),
    "cabello_ch_fixed": (-5.0 / 12.0, 0.0),
    "mermin": (3.0, 4.0),
    "eq13": (4.0, 4.0),
    "eq14": (5.0, 4.0),
}


def test_catalog_structure():
    assert set(catalog_ids()) == set(EXPECTED_TERM_COUNTS)
    for name, count in EXPECTED_TERM_COUNTS.items():
        expression = catalog(name)
        assert len(expression.terms) == count, name
        expected_qubits = 2 if name in ("chsh", "ch") else 3
        assert expression.num_qubits == expected_qubits
        assert expression.name == name


def test_unknown_catalog_id():
    with pytest.raises(ConfigError):
        catalog("nope")


def test_three_qubit_zx_values():
    states = {"w": w(), "ghz": ghz()}
    for name, (expected_w, expected_ghz) in ZX_VALUES.items():
        expression = catalog(name)
        binding = zx_binding(expression.scheme)
        assert quantum_value(expression, states["w"], binding) == pytest.approx(
            expected_w, abs=1e-9
        ), name
        assert quantum_value(expression, states["ghz"], binding) == pytest.approx(
            expected_ghz, abs=1e-9
        ), name


def test_chsh_singlet_standard_angles():
    expression = catalog("chsh")
    quarter = math.pi / 4.0
    binding = Binding(
        {
            (1, "A"): Observable.xz_plane(0.0),
            (1, "B"): Observable.xz_plane(math.pi / 2.0),
            (2, "A"): Observable.xz_plane(quarter),
            (2, "B"): Observable.xz_plane(-quarter),
        }
    )
    value = quantum_value(expression, singlet(), binding)
    assert abs(value) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)


def test_term_breakdown_sums_to_value():
    expression = catalog("cabello_ch")
    binding = zx_binding(expression.scheme)
    state = ghz()
    breakdown = term_breakdown(expression, state, binding)
    assert len(breakdown) == 5
    recombined = sum(term.coefficient * value for term, value in breakdown)
    assert recombined == pytest.approx(
        quantum_value(expression, state, binding), abs=1e-12
    )


def test_coefficient_scaling_is_linear():
    base = catalog("mermin")
    scaled = BellExpression(
        "mermin_scaled",
        base.scheme,
        tuple(Term(2.5 * term.coefficient, term.payload) for term in base.terms),
    )
    binding = zx_binding(base.scheme)
    assert quantum_value(scaled, w(), binding) == pytest.approx(
        2.5 * quantum_value(base, w(), binding), abs=1e-12
    )


def test_report_for_a_violation():
    expression = catalog("cabello_ch")
    report = evaluate_report(expression, ghz(), zx_binding(expression.scheme))
    assert report.violated
    assert report.quantum_value == pytest.approx(0.5, abs=1e-9)
    assert report.classical_upper == 0.0
    assert report.margin == pytest.approx(0.5, abs=1e-9)
    assert report.witness is None
    payload = report.as_dict()
    assert payload["expression"] == "cabello_ch"
    assert payload["violated"] is True


def test_report_at_the_classical_edge():
    # ghz meets the eq14 upper bound exactly, so no violation is reported
    # and the attached witness reproduces the bound
    expression = catalog("eq14")
    report = evaluate_report(expression, ghz(), zx_binding(expression.scheme))
    assert not report.violated
    assert report.margin == 0.0
    assert report.quantum_value == pytest.approx(4.0, abs=1e-9)
    assert report.witness is not None
    assert strategy_value(expression, report.witness) == pytest.approx(4.0)


def test_report_margin_tolerance_snapping():
    expression = catalog("eq14")
    loose = evaluate_report(
        expression, ghz(), zx_binding(expression.scheme), tolerance=1e-3
    )
    assert loose.margin == 0.0


def test_binding_uniform_and_overrides():
    scheme = SettingScheme.uniform(3)
    binding = zx_binding(scheme)
    assert binding.observable(2, "A").direction == (0.0, 0.0, 1.0)
    replaced = binding.with_overrides({(2, "B"): Observable.y()})
    assert replaced.observable(2, "B").direction == (0.0, 1.0, 0.0)
    assert replaced.observable(1, "B").direction == (1.0, 0.0, 0.0)
    keys = list(replaced.as_dict())
    assert keys == ["q1:A", "q1:B", "q2:A", "q2:B", "q3:A", "q3:B"]


def test_binding_missing_assignment():
    scheme = SettingScheme.uniform(2)
    with pytest.raises(ConfigError):
        Binding.uniform(scheme, {"A": Observable.z()})
    partial = Binding({(1, "A"): Observable.z()})
    with pytest.raises(ContractViolationError):
        partial.observable(1, "B")


def test_qubit_count_mismatch_rejected():
    expression = catalog("mermin")
    binding = zx_binding(expression.scheme)
    with pytest.raises(ContractViolationError):
        quantum_value(expression, singlet(), binding)


def test_expression_label_validation():
    scheme = SettingScheme.uniform(2)
    with pytest.raises(ContractViolationError):
        BellExpression(
            "bad",
            scheme,
            (Term(1.0, CorrelatorTerm(("A", "C"), frozenset((1, 2)))),),
        )
    with pytest.raises(ContractViolationError):
        BellExpression("empty", scheme, ())


def test_term_payload_contracts():
    with pytest.raises(ContractViolationError):
        CorrelatorTerm(("A", "B"), frozenset())
    with pytest.raises(ContractViolationError):
        CorrelatorTerm(("A", "B"), frozenset((3,)))
    with pytest.raises(ContractViolationError):
        ProbabilityTerm(("A", "B"), frozenset())
    with pytest.raises(ContractViolationError):
        ProbabilityTerm(("A", "B"), frozenset(((1, 1, 1),)))
    with pytest.raises(ContractViolationError):
        ProbabilityTerm(("A", "B"), frozenset(((1, 0),)))


def test_format_round_trips_the_catalog():
    for name in catalog_ids():
        expression = catalog(name)
        parsed = parse_expression_text(format_expression(expression), name=name)
        assert parsed.terms == expression.terms, name
        assert parsed.scheme == expression.scheme, name
        bounds = classical_bounds(parsed)
        original = classical_bounds(expression)
        assert (bounds.lower, bounds.upper) == (original.lower, original.upper)


def test_parse_accepts_comments_and_unicode_minus():
    text = "\n".join(
        [
            "# a correlator and a probability",
            "1 CORR q1:A q2:A SUBSET=1,2",
            "-0.5 PROB q1:B q2:B ACCEPT=+−,−+  # trailing note",
        ]
    )
    expression = parse_expression_text(text)
    assert len(expression.terms) == 2
    probability = expression.terms[1].payload
    assert probability.accepted == frozenset(((1, -1), (-1, 1)))


def test_parse_rejects_malformed_lines():
    bad_lines = [
        "x CORR q1:A q2:A SUBSET=1,2",
        "1 WHAT q1:A q2:A SUBSET=1,2",
        "1 CORR q1:A q2:A",
        "1 CORR q2:A SUBSET=1",
        "1 CORR q1:A q2:A SUBSET=1,5",
        "1 CORR q1:A q1:B SUBSET=1",
        "1 PROB q1:A q2:A ACCEPT=++,+",
        "1 PROB q1:A q2:A ACCEPT=+x",
        "1 PROB q1:A q2:A SUBSET=1,2",
        "1 CORR q1:A q2:A ACCEPT=++",
    ]
    for line in bad_lines:
        with pytest.raises(ExpressionFormatError):
            parse_expression_text(line)
    with pytest.raises(ExpressionFormatError):
        parse_expression_text("# nothing but comments\n")
    with pytest.raises(ExpressionFormatError):
        parse_expression_text(
            "1 CORR q1:A q2:A SUBSET=1,2\n1 CORR q1:A q2:A q3:A SUBSET=1,2,3"
        )


def test_resolve_expression_paths(tmp_path):
    assert resolve_expression("chsh").name == "chsh"
    path = tmp_path / "pair.txt"
    path.write_text(format_expression(catalog("ch")))
    loaded = resolve_expression(f"file:{path}")
    assert loaded.name == "pair"
    assert loaded.terms == catalog("ch").terms
    with pytest.raises(ConfigError):
        resolve_expression(f"file:{tmp_path / 'missing.txt'}")
    with pytest.raises(ConfigError):
        resolve_expression("unknown_id")


def test_literal_and_fixed_share_the_opening_probabilities():
    # literal keeps the symmetric opening event, fixed pins the pair (1, 2);
    # their probability payloads differ exactly there
    literal = catalog("cabello_ch_literal")
    fixed = catalog("cabello_ch_fixed")
    literal_first = literal.terms[0].payload
    fixed_first = fixed.terms[0].payload
    assert isinstance(literal_first, ProbabilityTerm)
    assert isinstance(fixed_first, ProbabilityTerm)
    assert literal_first.accepted == frozenset(
        ((-1, -1, 1), (-1, 1, -1), (1, -1, -1), (-1, -1, -1))
    )
    assert fixed_first.accepted == frozenset(((-1, -1, 1), (-1, -1, -1)))


def test_probability_terms_are_basis_independent_of_rest():
    # a probability term only involves its own labels; swapping the unused
    # observable assignment cannot change it
    expression = catalog("cabello_ch")
    state = w()
    base = zx_binding(expression.scheme)
    tweaked = base.with_overrides({})
    assert quantum_value(expression, state, tweaked) == pytest.approx(
        quantum_value(expression, state, base), abs=0.0
    )


def test_numeric_orientation_of_mermin_terms():
    # with A = z and B = x on w: <zzz> = 1 and each mixed term is -2/3
    expression = catalog("mermin")
    values = [value for _, value in term_breakdown(expression, w(), zx_binding(expression.scheme))]
    assert values[0] == pytest.approx(1.0, abs=1e-12)
    for mixed in values[1:]:
        assert mixed == pytest.approx(-2.0 / 3.0, abs=1e-12)


def test_format_term_examples():
    corr = Term(-1.0, CorrelatorTerm(("A", "B"), frozenset((1, 2))))
    assert format_term(corr) == "-1 CORR q1:A q2:B SUBSET=1,2"
    prob = Term(0.5, ProbabilityTerm(("A", "B"), frozenset(((1, -1), (-1, 1)))))
    assert format_term(prob) == "0.5 PROB q1:A q2:B ACCEPT=+-,-+"


def test_evaluate_report_enumerates_once_per_expression(monkeypatch):
    calls = []
    original = bell3q.expressions.classical_bounds

    def counting(expression):
        calls.append(expression.name)
        return original(expression)

    monkeypatch.setattr(bell3q.expressions, "classical_bounds", counting)
    expression = BellExpression(
        "zz", SettingScheme.uniform(2), (Term(1.0, CorrelatorTerm(("A", "A"), {1, 2})),)
    )
    binding = Binding.uniform(expression.scheme, {"A": Observable.z(), "B": Observable.x()})
    reports = [evaluate_report(expression, state, binding) for state in (singlet(), singlet())]
    assert calls == ["zz"]
    assert reports[0].classical_upper == expression.bounds.upper == 1.0
