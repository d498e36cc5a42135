"""Unit tests for repro.core.schema."""

import pytest

from repro.core.schema import (
    Attribute,
    Domain,
    RelationSchema,
    cust_ext_schema,
    cust_schema,
)
from repro.exceptions import DomainError, SchemaError


class TestDomain:
    def test_infinite_domain_contains_any_string(self):
        domain = Domain("string")
        assert "anything" in domain
        assert 42 in domain
        assert not domain.is_finite
        assert domain.size() is None

    @pytest.mark.parametrize(
        ("values", "members", "outside"),
        [
            (["T", "F"], ["T", "F"], "maybe"),
            # Values are text: a domain built from ints holds their strings.
            ([0, 1], [0, "0", 1, "1"], 2),
        ],
        ids=["str", "int"],
    )
    def test_finite_domain_membership(self, values, members, outside):
        domain = Domain("bool", frozenset(values))
        for value in members:
            assert value in domain
        assert outside not in domain
        assert domain.is_finite
        assert domain.size() == 2

    def test_finite_domain_requires_two_values(self):
        with pytest.raises(DomainError):
            Domain("unary", frozenset(["only"]))

    def test_fresh_value_avoids_exclusions_infinite(self):
        domain = Domain("string")
        fresh = domain.fresh_value(exclude=["_fresh_0", "_fresh_1"])
        assert fresh not in {"_fresh_0", "_fresh_1"}
        assert fresh in domain

    @pytest.mark.parametrize(("first", "second"), [("F", "T"), (0, 1)], ids=["str", "int"])
    def test_fresh_value_finite_domain_exhausted(self, first, second):
        domain = Domain("bool", frozenset([first, second]))
        assert domain.fresh_value(exclude=[first, second]) is None
        assert domain.fresh_value(exclude=[first]) == str(second)
        assert domain.fresh_value(exclude=[str(first)]) == str(second)

    def test_sample_deterministic(self):
        domain = Domain("abc", frozenset(["c", "a", "b"]))
        assert domain.sample(2) == ["a", "b"]
        assert Domain("string").sample(3) == ["_v0", "_v1", "_v2"]


class TestAttribute:
    def test_equality_and_hash_by_name(self):
        a1 = Attribute("CT")
        a2 = Attribute("CT", Domain("other"))
        assert a1 == a2
        assert hash(a1) == hash(a2)

    def test_invalid_names_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("")
        with pytest.raises(SchemaError):
            Attribute("bad name")


class TestRelationSchema:
    def test_basic_lookup(self):
        schema = cust_schema()
        assert schema.name == "cust"
        assert schema.attribute_names == ("AC", "PN", "NM", "STR", "CT", "ZIP")
        assert schema.attribute("CT").name == "CT"
        assert "CT" in schema
        assert "XX" not in schema
        assert schema.index_of("CT") == 4
        assert len(schema) == 6

    def test_unknown_attribute_raises(self):
        schema = cust_schema()
        with pytest.raises(SchemaError):
            schema.attribute("NOPE")
        with pytest.raises(SchemaError):
            schema.index_of("NOPE")

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("r", ["A", "B", "A"])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("r", [])

    def test_check_attributes_validates_and_preserves_order(self):
        schema = cust_schema()
        assert schema.check_attributes(["CT", "AC"]) == ["CT", "AC"]
        with pytest.raises(SchemaError):
            schema.check_attributes(["CT", "NOPE"])

    def test_check_value_against_finite_domain(self):
        schema = RelationSchema("r", [Attribute("A", Domain("bool", frozenset(["T", "F"])))])
        assert schema.check_value("A", "T") == "T"
        with pytest.raises(DomainError):
            schema.check_value("A", "Z")

    def test_equality(self):
        assert cust_schema() == cust_schema()
        assert cust_schema() != cust_ext_schema()

    def test_cust_ext_extends_cust(self):
        base = set(cust_schema().attribute_names)
        ext = set(cust_ext_schema().attribute_names)
        assert base <= ext
        assert {"ITEM_TYPE", "ITEM_TITLE", "PRICE"} <= ext

    def test_string_attributes_promoted(self):
        schema = RelationSchema("r", ["A", Attribute("B")])
        assert all(isinstance(a, Attribute) for a in schema.attributes)
