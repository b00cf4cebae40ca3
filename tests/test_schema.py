"""Tests for the relational substrate: symbols, schemas, instances,
databases, enumeration and generators."""

import pytest

from repro.schema import (
    Database,
    Instance,
    RelationKind,
    RelationalSchema,
    ServiceSchema,
    action_relation,
    canonical_domain,
    database_relation,
    enumerate_databases,
    enumerate_instances,
    enumerate_relations,
    input_relation,
    prev_symbol,
    random_database,
    random_instance,
    state_relation,
    union_active_domain,
)
from repro.schema.enumerate import count_databases
from repro.schema.symbols import RelationSymbol, unprev_name


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

class TestSymbols:
    def test_kinds(self):
        assert database_relation("r", 2).kind is RelationKind.DATABASE
        assert state_relation("s").kind is RelationKind.STATE
        assert input_relation("i", 1).kind is RelationKind.INPUT
        assert action_relation("a").kind is RelationKind.ACTION

    def test_proposition(self):
        assert state_relation("flag").is_proposition
        assert not database_relation("r", 1).is_proposition

    def test_negative_arity_rejected(self):
        with pytest.raises(ValueError):
            RelationSymbol("r", -1, RelationKind.DATABASE)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RelationSymbol("", 1, RelationKind.DATABASE)

    def test_prev_symbol(self):
        sym = input_relation("pick", 2)
        prev = prev_symbol(sym)
        assert prev.name == "prev_pick"
        assert prev.arity == 2
        assert prev.kind is RelationKind.PREV
        assert unprev_name(prev) == "pick"

    def test_prev_of_non_input_rejected(self):
        with pytest.raises(ValueError):
            prev_symbol(state_relation("s", 1))

    def test_symbols_hashable_and_ordered(self):
        a = database_relation("a", 1)
        b = database_relation("b", 1)
        assert len({a, b, database_relation("a", 1)}) == 2
        assert sorted([b, a]) == [a, b]


# ---------------------------------------------------------------------------
# schemas
# ---------------------------------------------------------------------------

class TestRelationalSchema:
    def test_lookup(self):
        schema = RelationalSchema([database_relation("user", 2)], ["c"])
        assert schema["user"].arity == 2
        assert schema.get("missing") is None
        assert "user" in schema
        assert "c" in schema.constants

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            RelationalSchema(
                [database_relation("r", 1), database_relation("r", 2)]
            )

    def test_union_and_restrict(self):
        s1 = RelationalSchema([database_relation("a", 1)], ["c1"])
        s2 = RelationalSchema([state_relation("b", 2)], ["c2"])
        u = s1.union(s2)
        assert len(u) == 2 and u.constants == {"c1", "c2"}
        assert len(u.restrict(["a"])) == 1

    def test_max_arity(self):
        schema = RelationalSchema(
            [database_relation("a", 1), database_relation("b", 3)]
        )
        assert schema.max_arity == 3
        assert RelationalSchema().max_arity == 0

    def test_getitem_keyerror(self):
        with pytest.raises(KeyError):
            RelationalSchema()["nope"]


class TestServiceSchema:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            ServiceSchema(
                database=RelationalSchema([database_relation("r", 1)]),
                state=RelationalSchema([state_relation("r", 1)]),
                input=RelationalSchema(),
                action=RelationalSchema(),
            )

    @pytest.mark.parametrize("kind", ["database", "state", "input"])
    def test_derived_prev_name_is_reserved(self, kind):
        # a declared prev_button would alias button's prev relation in
        # every evaluation context, which keys relations by name
        parts = {
            "database": [], "state": [], "action": [],
            "input": [input_relation("button", 0)],
        }
        parts[kind].append(RelationSymbol(
            "prev_button", 0, RelationKind(kind)
        ))
        with pytest.raises(ValueError, match="derived from the input"):
            ServiceSchema(**{
                name: RelationalSchema(rels) for name, rels in parts.items()
            })

    def test_prev_vocabulary_derived(self, small_schema):
        prev_names = {r.name for r in small_schema.prev.relations}
        assert prev_names == {"prev_button", "prev_pick", "prev_toggle"}

    def test_resolve_across_vocabularies(self, small_schema):
        assert small_schema.resolve("user").kind is RelationKind.DATABASE
        assert small_schema.resolve("cart").kind is RelationKind.STATE
        assert small_schema.resolve("prev_pick").kind is RelationKind.PREV
        assert small_schema.resolve("missing") is None

    def test_input_constants(self, small_schema):
        assert small_schema.input_constants == {"name", "password"}

    def test_full_vocabulary(self, small_schema):
        vocab = small_schema.full_vocabulary()
        assert "user" in vocab and "prev_button" in vocab and "ship" in vocab


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

class TestInstance:
    def test_empty(self):
        inst = Instance.empty()
        assert not inst
        assert inst.active_domain() == frozenset()

    def test_tuples_and_holds(self):
        sym = state_relation("cart", 1)
        inst = Instance({sym: [("a",), ("b",)]})
        assert inst.holds(sym, ("a",))
        assert not inst.holds(sym, ("c",))
        assert inst.tuples(sym) == {("a",), ("b",)}

    def test_propositions_as_bool(self):
        flag = state_relation("flag")
        assert Instance({flag: True}).truth(flag)
        assert not Instance({flag: False}).truth(flag)

    def test_truth_on_relational_symbol_rejected(self):
        sym = state_relation("cart", 1)
        with pytest.raises(ValueError):
            Instance({sym: [("a",)]}).truth(sym)

    def test_arity_mismatch_rejected(self):
        sym = state_relation("cart", 1)
        with pytest.raises(ValueError):
            Instance({sym: [("a", "b")]})

    def test_equality_and_hash(self):
        sym = state_relation("cart", 1)
        a = Instance({sym: [("x",)]})
        b = Instance({sym: [("x",)]})
        assert a == b and hash(a) == hash(b)
        assert a != Instance({sym: [("y",)]})

    def test_empty_relation_normalised_away(self):
        sym = state_relation("cart", 1)
        assert Instance({sym: []}) == Instance.empty()

    def test_with_relation_functional(self):
        sym = state_relation("cart", 1)
        base = Instance({sym: [("x",)]})
        updated = base.with_relation(sym, [("y",)])
        assert base.tuples(sym) == {("x",)}
        assert updated.tuples(sym) == {("y",)}

    def test_merged(self):
        sym = state_relation("cart", 1)
        merged = Instance({sym: [("x",)]}).merged(Instance({sym: [("y",)]}))
        assert merged.tuples(sym) == {("x",), ("y",)}

    def test_restricted(self):
        a, b = state_relation("a", 1), state_relation("b", 1)
        inst = Instance({a: [("1",)], b: [("2",)]})
        assert inst.restricted([a]).nonempty_symbols == {a}

    def test_renamed(self):
        sym = state_relation("cart", 1)
        inst = Instance({sym: [("x",)]}).renamed({"x": "z"})
        assert inst.holds(sym, ("z",))

    def test_active_domain_and_union(self):
        a = Instance({state_relation("a", 1): [("1",)]})
        b = Instance({state_relation("b", 2): [("2", "3")]})
        assert union_active_domain(a, b) == {"1", "2", "3"}

    def test_total_tuples(self):
        sym = state_relation("cart", 1)
        assert Instance({sym: [("x",), ("y",)]}).total_tuples() == 2


# ---------------------------------------------------------------------------
# databases
# ---------------------------------------------------------------------------

class TestDatabase:
    def test_facts_and_constants(self, small_schema, small_db):
        assert small_db.holds("user", ("alice", "pw"))
        assert small_db.constant("root") == "alice"

    def test_constant_default_self_interpretation(self):
        schema = RelationalSchema([database_relation("r", 1)], ["c"])
        db = Database(schema)
        assert db.constant("c") == "c"

    def test_unknown_constant(self, small_db):
        with pytest.raises(KeyError):
            small_db.constant("nope")

    def test_non_database_relation_rejected(self, small_schema):
        with pytest.raises(ValueError):
            Database(
                RelationalSchema([database_relation("r", 1)]),
                {"x": [("a",)]},
            )

    def test_domain_includes_constants_and_extra(self):
        schema = RelationalSchema([database_relation("r", 1)], ["c"])
        db = Database(schema, {"r": [("a",)]}, {"c": "k"}, extra_domain=["z"])
        assert {"a", "k", "z"} <= db.domain

    def test_widened(self, small_db):
        widened = small_db.widened(["zzz"])
        assert "zzz" in widened.domain
        assert small_db.domain < widened.domain

    def test_hash_eq(self, small_schema):
        schema = small_schema.database
        d1 = Database(schema, {"item": [("i1",)]})
        d2 = Database(schema, {"item": [("i1",)]})
        assert d1 == d2 and hash(d1) == hash(d2)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

class TestEnumeration:
    def test_enumerate_relations_count(self):
        assert len(list(enumerate_relations(1, ["a", "b"]))) == 4
        assert len(list(enumerate_relations(0, ["a"]))) == 2

    def test_enumerate_instances_count(self):
        schema = RelationalSchema(
            [database_relation("p", 1), database_relation("q", 0)]
        )
        assert len(list(enumerate_instances(schema, ["a"]))) == 4

    def test_enumerate_databases_no_iso(self):
        schema = RelationalSchema([database_relation("p", 1)])
        dbs = list(enumerate_databases(schema, 2, up_to_iso=False))
        assert len(dbs) == 4

    def test_iso_pruning_reduces(self):
        schema = RelationalSchema([database_relation("p", 1)])
        pruned = list(enumerate_databases(schema, 2, up_to_iso=True))
        # |p| in {0, 1, 2} up to renaming of the two anonymous elements.
        assert len(pruned) == 3

    def test_iso_pruning_respects_constants(self):
        schema = RelationalSchema([database_relation("p", 1)], ["c"])
        dbs = list(enumerate_databases(schema, 2, constants={"c": "d0"}))
        # c is pinned to d0: p({d0}) and p({d1}) are NOT isomorphic.
        contents = {tuple(sorted(db.tuples("p"))) for db in dbs}
        assert (("d0",),) in contents and (("d1",),) in contents

    def test_fixed_elements_not_permuted(self):
        schema = RelationalSchema([database_relation("p", 1)])
        dbs = list(
            enumerate_databases(
                schema, 2, domain=["lit", "d0"], fixed_elements=["lit"]
            )
        )
        contents = {frozenset(db.tuples("p")) for db in dbs}
        assert frozenset({("lit",)}) in contents
        assert frozenset({("d0",)}) in contents

    def test_count_databases(self):
        schema = RelationalSchema([database_relation("p", 1)], ["c"])
        assert count_databases(schema, 2) == 4 * 2

    def test_canonical_domain(self):
        assert canonical_domain(3) == ["d0", "d1", "d2"]


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

class TestGenerators:
    def test_random_instance_deterministic(self, small_schema):
        a = random_instance(small_schema.state, ["a", "b"], rng=42)
        b = random_instance(small_schema.state, ["a", "b"], rng=42)
        assert a == b

    def test_random_database_within_schema(self, small_schema):
        db = random_database(small_schema.database, ["a", "b", "c"], rng=7)
        for sym in small_schema.database.relations:
            for t in db.tuples(sym):
                assert len(t) == sym.arity
        assert db.constant("root") in {"a", "b", "c"}

    def test_density_extremes(self, small_schema):
        full = random_database(small_schema.database, ["a"], density=1.0, rng=1)
        empty = random_database(small_schema.database, ["a"], density=0.0, rng=1)
        assert full.tuples("item") == {("a",)}
        assert empty.tuples("item") == frozenset()
