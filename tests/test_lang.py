from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from leaklab import lang
from leaklab.errors import ParseError

from conftest import load_program
from schedule_oracle import label_statements


def parse(src: str) -> lang.Program:
    return lang.parse_program(src)


MINI = "var x : int[0..3] label low = 0;\n"


class TestParsing:
    def test_smallest_program(self):
        p = parse(MINI + "thread A { skip; }")
        assert len(p.threads) == 1
        (stmt,) = p.threads[0].body
        assert isinstance(stmt, lang.Skip)
        assert stmt.label == lang.LocationId(0, 0)

    def test_semaphore_pair_thread2_labels_l0_to_l8(self):
        p = load_program("semaphore_pair.cwl")
        t2 = p.thread_index("T2")
        labels = [loc.index for loc in p.labels_of_thread(t2)]
        assert labels == list(range(9))  # l0 .. l8 incl. exit
        assert isinstance(p.statement_at(lang.LocationId(t2, 0)), lang.Print)
        assert isinstance(p.statement_at(lang.LocationId(t2, 1)), lang.If)
        assert isinstance(p.statement_at(lang.LocationId(t2, 2)), lang.Await)
        for i in (3, 4, 5):
            assert isinstance(p.statement_at(lang.LocationId(t2, i)), lang.Assign)
        assert isinstance(p.statement_at(lang.LocationId(t2, 6)), lang.Skip)
        assert isinstance(p.statement_at(lang.LocationId(t2, 7)), lang.Print)

    def test_nested_await_rejected(self):
        src = MINI + "thread A { await x > 0 then { await x > 1 then { skip; }; }; }"
        with pytest.raises(ParseError, match="nested await"):
            parse(src)

    def test_undeclared_variable(self):
        with pytest.raises(ParseError, match="undeclared variable"):
            parse(MINI + "thread A { y = 1; }")

    def test_duplicate_declaration(self):
        with pytest.raises(ParseError, match="duplicate declaration"):
            parse(MINI + MINI + "thread A { skip; }")

    def test_empty_program_rejected(self):
        with pytest.raises(ParseError, match="no threads"):
            parse("")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse(MINI + "thread A { x = ; }")
        assert err.value.line >= 2

    def test_initializer_outside_domain(self):
        with pytest.raises(ParseError, match="outside domain"):
            parse("var x : int[0..3] label low = 7;\nthread A { skip; }")

    def test_type_mismatch_rejected(self):
        src = "var b : bool label low = true;\nthread A { b = 3; }"
        with pytest.raises(ParseError):
            parse(src)

    def test_reserved_clock_name(self):
        with pytest.raises(ParseError, match="reserved"):
            parse("var t : int[0..1] label low = 0;\nthread A { skip; }")

    def test_ghost_declarations(self):
        p = parse("ghost V0 : int[0..4];\n" + MINI + "thread A { skip; }")
        assert p.ghosts[0].name == "V0"
        assert p.ghosts[0].domain == range(5)

    @pytest.mark.parametrize("keyword", ["var", "ghost"])
    def test_empty_domain_rejected(self, keyword):
        decl = {"var": "var V : int[3..1] label low = 3;\n",
                "ghost": "ghost V : int[3..1];\n"}[keyword]
        with pytest.raises(ParseError, match=r"empty domain \[3\.\.1\] for V"):
            parse(decl + MINI + "thread A { skip; }")


class TestLabelling:
    def test_single_skip_gets_l0_plus_exit(self):
        p = parse(MINI + "thread A { skip; }")
        assert p.threads[0].body[0].label == lang.LocationId(0, 0)
        assert lang.exit_label(p, 0) == lang.LocationId(0, 1)

    def test_three_assigns_distinct_labels_plus_exit(self):
        p = parse(MINI + "thread A { x = 1; x = 2; x = 3; }")
        labels = [s.label for s in p.threads[0].body]
        assert labels == [lang.LocationId(0, i) for i in range(3)]
        assert lang.exit_label(p, 0) == lang.LocationId(0, 3)

    def test_label_uniqueness_across_threads(self):
        p = load_program("semaphore_pair.cwl")
        all_labels = [s.label for t in p.threads for s in lang.iter_statements(t.body)]
        assert len(all_labels) == len(set(all_labels))


class TestFreeVars:
    def test_assignment(self):
        p = parse("var v : int[0..9] label low = 0;\nthread A { v = v + 2; }")
        assert lang.free_vars(p.threads[0].body[0]) == {"v"}

    def test_critical_region(self, semaphore_pair):
        t2 = semaphore_pair.thread_index("T2")
        region = semaphore_pair.statement_at(lang.LocationId(t2, 2))
        assert lang.free_vars(region) == {"sem", "v"}

    def test_literal(self):
        assert lang.free_vars(lang.IntLit(5)) == frozenset()


# --- round-trip property ----------------------------------------------------

INT_VARS = ("x", "y")
BOOL_VARS = ("p",)


def int_exprs(depth: int = 2) -> st.SearchStrategy:
    base = st.one_of(
        st.integers(min_value=0, max_value=9).map(lang.IntLit),
        st.sampled_from(INT_VARS).map(lang.Var))
    if depth == 0:
        return base
    sub = int_exprs(depth - 1)
    return st.one_of(
        base,
        st.builds(lang.BinOp, st.sampled_from(("+", "-", "*")), sub, sub),
        sub.map(lambda e: lang.UnaryOp("-", e)))


def bool_exprs(depth: int = 2) -> st.SearchStrategy:
    ints = int_exprs(1)
    base = st.one_of(
        st.booleans().map(lang.BoolLit),
        st.sampled_from(BOOL_VARS).map(lang.Var),
        st.builds(lang.BinOp, st.sampled_from(lang.CMP_OPS[2:]), ints, ints),
        st.builds(lang.BinOp, st.sampled_from(("=", "!=")), ints, ints))
    if depth == 0:
        return base
    sub = bool_exprs(depth - 1)
    return st.one_of(
        base,
        st.builds(lang.BinOp, st.sampled_from(("and", "or")), sub, sub),
        sub.map(lambda e: lang.UnaryOp("not", e)))


def statements(depth: int = 2) -> st.SearchStrategy:
    atoms = st.one_of(
        st.just(lang.Skip()),
        st.builds(lang.Assign, st.sampled_from(INT_VARS), int_exprs(1)),
        st.builds(lang.Print, st.one_of(
            int_exprs(1), st.sampled_from(("a", "b")).map(lang.StrLit))),
        st.builds(lang.Delay, int_exprs(0)))
    if depth == 0:
        return atoms
    body = st.lists(statements(depth - 1), min_size=0, max_size=2).map(tuple)
    guarded = st.one_of(bool_exprs(1), st.sampled_from(INT_VARS).map(lang.Var))
    region_body = st.lists(atoms, min_size=0, max_size=2).map(tuple)
    return st.one_of(
        atoms,
        st.builds(lang.If, guarded, body, body),
        st.builds(lang.While, guarded, body),
        st.builds(lang.Await, guarded, region_body))


@st.composite
def programs(draw) -> lang.Program:
    y_secret = draw(st.booleans())
    decls = (
        lang.Decl("x", lang.INT, "low", range(10), 0, False),
        lang.Decl("y", lang.INT, "high", range(10),
                  None if y_secret else 3, y_secret),
        lang.Decl("p", lang.BOOL, "low", (False, True), True, False),
    )
    n_threads = draw(st.integers(min_value=1, max_value=2))
    threads = tuple(
        lang.Thread(f"T{i}", tuple(draw(st.lists(statements(), min_size=1, max_size=3))))
        for i in range(n_threads))
    return lang.Program(decls, threads)


class TestRoundTrip:
    @given(programs())
    def test_parse_unparse_round_trip(self, program: lang.Program):
        # The parser labels as it reads, as the reference pass labels afterwards.
        text = lang.unparse(program)
        reparsed = lang.parse_program(text)
        assert reparsed == label_statements(program)

    @given(programs())
    def test_labels_unique(self, program: lang.Program):
        labels = [s.label for t in lang.parse_program(lang.unparse(program)).threads
                  for s in lang.iter_statements(t.body)]
        assert len(labels) == len(set(labels))

    def test_annotations_survive_round_trip(self):
        p = load_program("semaphore_pair_annotated.cwl")
        assert lang.parse_program(lang.unparse(p)) == p
