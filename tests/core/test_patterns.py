"""Unit tests for the pattern language (repro.core.patterns)."""

import pytest

from repro.core.patterns import (
    WILDCARD,
    ComplementSet,
    ValueSet,
    Wildcard,
    constant,
    pattern_from_literal,
)
from repro.core.schema import Domain
from repro.exceptions import PatternError


class TestMatching:
    """The ≍ relation of Section II."""

    def test_wildcard_matches_everything(self):
        assert WILDCARD.matches("NYC")
        assert WILDCARD.matches(42)
        assert WILDCARD.matches("")

    @pytest.mark.parametrize(
        ("members", "hits", "misses"),
        [
            (["Albany", "Troy"], ["Albany", "Troy"], ["NYC"]),
            # Constants are text: an int constant and its string are one value.
            ([212, "718"], [212, "212", 718, "718"], [917, "0212"]),
        ],
        ids=["str", "int"],
    )
    def test_value_set_matches_members_only(self, members, hits, misses):
        pattern = ValueSet(members)
        for value in hits:
            assert pattern.matches(value)
        for value in misses:
            assert not pattern.matches(value)

    @pytest.mark.parametrize(
        ("members", "hits", "misses"),
        [
            (["NYC", "LI"], ["Albany"], ["NYC", "LI"]),
            ([212, "718"], [917, "0212"], [212, "212", 718, "718"]),
        ],
        ids=["str", "int"],
    )
    def test_complement_set_matches_non_members(self, members, hits, misses):
        pattern = ComplementSet(members)
        for value in hits:
            assert pattern.matches(value)
        for value in misses:
            assert not pattern.matches(value)

    def test_paper_example_t1_t4(self):
        """t1[CT]=Albany matches {NYC,LI}̄ ; t4[CT]=NYC does not (Section II)."""
        pattern = ComplementSet(["NYC", "LI"])
        assert pattern.matches("Albany")
        assert not pattern.matches("NYC")


class TestConstruction:
    def test_empty_sets_rejected(self):
        with pytest.raises(PatternError):
            ValueSet([])
        with pytest.raises(PatternError):
            ComplementSet([])

    def test_non_scalar_values_rejected(self):
        with pytest.raises(PatternError):
            ValueSet([("tuple",)])

    @pytest.mark.parametrize("value", ["518", 518], ids=["str", "int"])
    def test_constant_is_singleton_set(self, value):
        pattern = constant(value)
        assert isinstance(pattern, ValueSet)
        assert pattern.constants() == frozenset({"518"})
        assert pattern == ValueSet(["518"])

    def test_pattern_from_literal(self):
        assert isinstance(pattern_from_literal("_"), Wildcard)
        assert isinstance(pattern_from_literal(None), Wildcard)
        assert pattern_from_literal("NYC") == constant("NYC")
        assert pattern_from_literal({"a", "b"}) == ValueSet(["a", "b"])
        assert pattern_from_literal([212, "718"]) == ValueSet(["212", "718"])
        assert pattern_from_literal(ValueSet(["x"])) == ValueSet(["x"])
        with pytest.raises(PatternError):
            pattern_from_literal(3.14)


class TestConstants:
    def test_constants_reported(self):
        assert WILDCARD.constants() == frozenset()
        assert ValueSet(["a", "b"]).constants() == frozenset({"a", "b"})
        assert ComplementSet(["a"]).constants() == frozenset({"a"})
        assert ValueSet([212]) == ValueSet(["212"])
        assert ComplementSet([212, "a"]).constants() == frozenset({"212", "a"})


class TestSubsumption:
    def test_wildcard_subsumes_everything(self):
        assert WILDCARD.subsumes(ValueSet(["a"]))
        assert WILDCARD.subsumes(ComplementSet(["a"]))
        assert WILDCARD.subsumes(WILDCARD)

    def test_value_set_subsumption(self):
        big = ValueSet(["a", "b", "c"])
        small = ValueSet(["a", "b"])
        assert big.subsumes(small)
        assert not small.subsumes(big)
        assert not small.subsumes(WILDCARD)

    def test_complement_subsumes_disjoint_set(self):
        comp = ComplementSet(["NYC", "LI"])
        assert comp.subsumes(ValueSet(["Albany"]))
        assert not comp.subsumes(ValueSet(["NYC", "Albany"]))

    def test_complement_subsumes_larger_complement(self):
        assert ComplementSet(["a"]).subsumes(ComplementSet(["a", "b"]))
        assert not ComplementSet(["a", "b"]).subsumes(ComplementSet(["a"]))


class TestIntersection:
    def test_wildcard_is_identity(self):
        pattern = ValueSet(["a"])
        assert WILDCARD.intersect(pattern) == pattern
        assert pattern.intersect(WILDCARD) == pattern

    def test_set_set_intersection(self):
        left = ValueSet(["a", "b"])
        right = ValueSet(["b", "c"])
        assert left.intersect(right) == ValueSet(["b"])
        assert ValueSet(["a"]).intersect(ValueSet(["b"])) is None

    def test_set_complement_intersection(self):
        values = ValueSet(["a", "b"])
        comp = ComplementSet(["b"])
        assert values.intersect(comp) == ValueSet(["a"])
        assert comp.intersect(values) == ValueSet(["a"])
        assert ValueSet(["b"]).intersect(ComplementSet(["b"])) is None

    def test_complement_complement_intersection(self):
        assert ComplementSet(["a"]).intersect(ComplementSet(["b"])) == ComplementSet(["a", "b"])

    def test_intersection_soundness_samples(self):
        """Any value matching the intersection matches both operands."""
        left = ValueSet(["a", "b", "c"])
        right = ComplementSet(["b"])
        both = left.intersect(right)
        assert both is not None
        for value in ["a", "b", "c", "d"]:
            if both.matches(value):
                assert left.matches(value) and right.matches(value)


class TestAdmitsAndPick:
    def test_admits_infinite_domain(self):
        domain = Domain("string")
        assert WILDCARD.admits(domain)
        assert ValueSet(["x"]).admits(domain)
        assert ComplementSet(["x"]).admits(domain)

    @pytest.mark.parametrize(
        ("values", "outside"),
        [(["T", "F"], "Z"), ([1, 0], 2), ([1, 0], "2")],
        ids=["str", "int", "int-domain-str-outside"],
    )
    def test_admits_finite_domain(self, values, outside):
        domain = Domain("bool", frozenset(values))
        assert ValueSet(values[:1]).admits(domain)
        assert ValueSet([str(values[0])]).admits(domain)
        assert not ValueSet([outside]).admits(domain)
        assert ComplementSet(values[:1]).admits(domain)
        assert not ComplementSet(values).admits(domain)

    def test_pick_returns_matching_value(self):
        domain = Domain("string")
        for pattern in [WILDCARD, ValueSet(["a", "b"]), ComplementSet(["a"])]:
            value = pattern.pick(domain)
            assert value is not None
            assert pattern.matches(value)

    @pytest.mark.parametrize(
        ("domain", "members", "picked"),
        [
            (Domain("string"), ["a", "b"], {"a", "b"}),
            (Domain("bit", frozenset([0, 1])), [0, 1], {"0", "1"}),
        ],
        ids=["str", "int"],
    )
    def test_pick_respects_avoid_when_possible(self, domain, members, picked):
        value = ValueSet(members).pick(domain, avoid=members[:1])
        assert value == sorted(picked)[1]
        # When everything is avoided the pattern still yields some member.
        value = ValueSet(members).pick(domain, avoid=members)
        assert value in picked

    @pytest.mark.parametrize(
        ("values", "outside"), [(["T", "F"], "Z"), ([0, 1], 2)], ids=["str", "int"]
    )
    def test_pick_on_exhausted_finite_domain(self, values, outside):
        domain = Domain("bool", frozenset(values))
        assert ComplementSet(values).pick(domain) is None
        assert ValueSet([outside]).pick(domain) is None
        assert ComplementSet(values[:1]).pick(domain) == str(values[1])


class TestText:
    def test_to_text_round_trips_semantics(self):
        assert WILDCARD.to_text() == "_"
        assert ValueSet(["b", "a"]).to_text() == "{a, b}"
        assert ComplementSet(["NYC"]).to_text() == "!{NYC}"

    def test_str_delegates_to_text(self):
        assert str(ComplementSet(["x"])) == "!{x}"
