"""Census enumeration, cross-validation, and report snapshots."""

import dataclasses
import hashlib
import itertools
import json
import math
import multiprocessing

import pytest

from starfactor import census
from starfactor.census import (
    CensusResult,
    CensusRow,
    cross_validate,
    evaluate_graph,
    generate_connected,
    generate_connected_girth5,
    report,
)
from starfactor.graph import Graph, Graph6Error, canonical_form, girth, parse_graph6, to_graph6

from conftest import DATA_DIR, cycle, path, petersen, time_limit

FORMATS = ("json", "text", "tsv")


def brute_connected_count(n):
    """Independent recount: all edge subsets, connectivity by vertex merging."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    count = 0
    for r in range(len(pairs) + 1):
        for chosen in itertools.combinations(pairs, r):
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for u, v in chosen:
                parent[find(u)] = find(v)
            if len({find(v) for v in range(n)}) == 1:
                count += 1
    return count


class TestGenerators:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_connected_counts_match_brute_recount(self, n):
        # [DERIVED: union-find recount over all edge subsets]
        assert sum(1 for _ in generate_connected(n)) == brute_connected_count(n)

    def test_girth5_generator_agrees_with_filter(self):
        for n in range(1, 7):
            expected = sorted(
                g.edges for g in generate_connected(n) if girth(g).at_least(5)
            )
            got = sorted(g.edges for g in generate_connected_girth5(n))
            assert got == expected

    def test_girth5_counts(self):
        # [DERIVED: filtering the full enumeration]
        counts = {n: sum(1 for _ in generate_connected_girth5(n)) for n in range(1, 8)}
        assert counts == {1: 1, 2: 1, 3: 3, 4: 16, 5: 137, 6: 1716, 7: 29767}

    def test_range_checks(self):
        # raised by the call itself, before anything is iterated
        for n in (0, 8):
            with pytest.raises(ValueError):
                generate_connected(n)
        for n in (0, 9):
            with pytest.raises(ValueError):
                generate_connected_girth5(n)

    # sha256 of the newline-joined graph6 lines: the benchmark's samples
    # draw graphs from these lists by position, so their order is pinned
    CONNECTED_DIGESTS = {
        1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
        2: "ada8d598e51a0bf0d4bb5976d5dc6cb088a0603072947b002d4d665c54cadb1f",
        3: "1cd627bfb40d865b9cb9db170c9cc42ed01a165e77c8b343af8c58ea5a6aa3c9",
        4: "324f579dbd21c6a269e6e18cc278b0b17af0e9eb92552e227ce7c05dff829fa8",
        5: "05be4a8382f5a2d518a054093339f559e9e56272e91bcc4f8330946ac224194f",
        6: "556ab4a90f95ca43163ad71f7cccf75159f8095e59b499b5d3dbe835ca65cee1",
    }
    GIRTH5_DIGESTS = {
        1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
        2: "ada8d598e51a0bf0d4bb5976d5dc6cb088a0603072947b002d4d665c54cadb1f",
        3: "0a0beb6d83660e952fca03b9c23a1dcfb52c5b6058b4371da05337b1c8ada411",
        4: "a1c373ea02fa608aaa8bdb34c631bdfa307891978d88296760f932436c5aabd4",
        5: "49dec57886f2b64edab3de436365995a1d20e7899f1c5d301b35ff0dbbf22a8b",
        6: "0b71999215b397c3944535746e0065fb9fcbfb4f870dcf065e313b41eab9a69f",
        7: "4355880219cc75c33d2022838df4bfc365bf19df10dd3e04491a0abd40b9726f",
    }

    @staticmethod
    def digest(graphs):
        return hashlib.sha256("\n".join(map(to_graph6, graphs)).encode()).hexdigest()

    @pytest.mark.parametrize("n", sorted(CONNECTED_DIGESTS))
    def test_connected_order_is_pinned(self, n):
        assert self.digest(generate_connected(n)) == self.CONNECTED_DIGESTS[n]

    @pytest.mark.parametrize("n", sorted(GIRTH5_DIGESTS))
    def test_girth5_order_is_pinned(self, n):
        assert self.digest(generate_connected_girth5(n)) == self.GIRTH5_DIGESTS[n]


class TestEvaluate:
    def test_member_and_uniform_flags(self):
        row, _ = evaluate_graph(cycle(5))
        assert row.omega_members == row.u_members == 1 and row.girth_class == "5"
        row, _ = evaluate_graph(path(6))
        assert (row.omega_members, row.u_members) == (1, 0)
        row, _ = evaluate_graph(cycle(6))
        assert row.omega_members == 0 and row.girth_class == "6"

    def test_cap_marks_record(self):
        row, _ = evaluate_graph(cycle(6), cap=2)
        assert (row.cap_exceeded, row.omega_members) == (1, 0)

    def test_vacuous_graph_counted_without_verdict(self):
        row, disagreement = evaluate_graph(Graph(1, ()))
        assert row == CensusRow(n=1, girth_class="inf", graph_count=1)
        assert disagreement is None

    def test_counts_are_ints_for_one_graph(self):
        # the census multiplies every count after n and girth_class by a
        # class's copies, so each is the int 0 or 1, never a bool
        graphs = [cycle(5), cycle(6), path(6), petersen(), Graph(1, ())]
        evaluated = [evaluate_graph(g) for g in graphs] + [evaluate_graph(cycle(6), cap=2)]
        for row, _ in evaluated:
            assert row.graph_count == 1
            for attr, *_ in census._COLUMNS[2:]:
                assert type(getattr(row, attr)) is int and getattr(row, attr) in (0, 1), (row, attr)

    def test_filtered_graph_is_not_decided(self):
        assert evaluate_graph(cycle(4), girth_min=5) is None
        assert evaluate_graph(cycle(5), girth_min=5) is not None

    def test_census_row_fields_are_the_report_columns(self):
        assert [f.name for f in dataclasses.fields(CensusRow)] == [attr for attr, *_ in census._COLUMNS]


class TestCrossValidate:
    def test_n4_full_row_totals(self):
        # [DERIVED: independent recount + oracle run over all 38 connected
        # labeled graphs on 4 vertices]
        result = cross_validate(ns=[4])
        assert sum(r.graph_count for r in result.rows) == brute_connected_count(4)
        assert not result.disagreements

    def test_external_graph6_lines(self):
        lines = [to_graph6(cycle(5)), to_graph6(cycle(6)), ""]
        result = cross_validate(graph6_lines=lines)
        assert sum(r.graph_count for r in result.rows) == 2
        members = sum(r.omega_members for r in result.rows)
        assert members == 1
        assert not result.disagreements

    def test_girth_filter(self):
        result = cross_validate(ns=[5], girth_min=5)
        classes = {r.girth_class for r in result.rows}
        assert classes <= {"5", "6", "7", ">=8", "inf"}
        assert sum(r.graph_count for r in result.rows) == 137

    def test_girth_filter_compares_girth_values(self):
        # C8 and C9 share the ">=8" class, but only C9 has girth >= 9
        lines = [to_graph6(cycle(8)), to_graph6(cycle(9))]
        result = cross_validate(graph6_lines=lines, girth_min=9)
        assert [(r.n, r.girth_class, r.graph_count) for r in result.rows] == [(9, ">=8", 1)]

    def test_huge_girth_filter_finishes_with_the_acyclic_report(self):
        # on seven vertices or fewer no cycle reaches length 8, so any
        # girth_min >= 8 keeps exactly the trees; the distance balls stop
        # growing after n - 1 rounds, however large girth_min is
        expected = [report(cross_validate(ns=range(1, 8), girth_min=8), fmt=fmt) for fmt in FORMATS]
        with time_limit(5.0):
            result = cross_validate(ns=range(1, 8), girth_min=1_000_000_000)
        assert [report(result, fmt=fmt) for fmt in FORMATS] == expected

    def test_girth_filter_decides_only_kept_graphs(self, monkeypatch):
        unfiltered = cross_validate(ns=[5])
        decided = []
        oracle = census.omega_oracle

        def recording_oracle(g, cap):
            decided.append(g)
            return oracle(g, cap=cap)

        monkeypatch.setattr("starfactor.census.omega_oracle", recording_oracle)
        filtered = cross_validate(ns=[5], girth_min=4)
        # one graph per isomorphism class is decided, and it stands for
        # its 5!/|Aut G| labeled copies
        forms = [canonical_form(g) for g in decided]
        assert len({form for form, _ in forms}) == len(decided)
        assert all(girth(g).at_least(4) for g in decided)
        copies = sum(math.factorial(5) // automorphisms for _, automorphisms in forms)
        assert copies == sum(r.graph_count for r in filtered.rows)
        assert filtered.rows == [r for r in unfiltered.rows if r.girth_class != "3"]

    def test_worker_count_does_not_change_result(self):
        seq = cross_validate(ns=[5], girth_min=5)
        par = cross_validate(ns=[5], girth_min=5, workers=2)
        assert report(seq, fmt="json") == report(par, fmt="json")

    def test_worker_count_clamped_to_cpu_count(self, monkeypatch):
        # a stub pool that records its size and starts no process
        sizes = []

        class StubPool:
            def __init__(self, processes):
                sizes.append(processes)

            def imap(self, func, iterable, chunksize=1):
                return map(func, iterable)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                pass

            def close(self):
                pass

            def join(self):
                pass

        monkeypatch.setattr("starfactor.census.multiprocessing.Pool", StubPool)
        monkeypatch.setattr("starfactor.census.os.cpu_count", lambda: 2)
        expected = cross_validate(ns=[4], workers=1).rows
        # 0 means every CPU
        for workers in (100_000, 0):
            assert cross_validate(ns=[4], workers=workers).rows == expected
        assert sizes == [2, 2]

    def test_worker_count_clamped_to_work_items(self, monkeypatch):
        # a stub pool that records its size and chunk size and starts no process
        pools = []

        class StubPool:
            def __init__(self, processes):
                pools.append([processes])

            def imap(self, func, iterable, chunksize=1):
                pools[-1].append(chunksize)
                return map(func, iterable)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                pass

            def close(self):
                pass

            def join(self):
                pass

        monkeypatch.setattr("starfactor.census.multiprocessing.Pool", StubPool)
        monkeypatch.setattr("starfactor.census.os.cpu_count", lambda: 8)
        # one work item (the one class on two vertices, or one graph6 line)
        # and no work item start no pool
        assert cross_validate(ns=[2], workers=8).rows[0].graph_count == 1
        assert cross_validate(graph6_lines=[to_graph6(cycle(5))], workers=0).rows[0].graph_count == 1
        assert cross_validate(graph6_lines=["", " "], workers=8).rows == []
        assert pools == []
        # the 2 classes on three vertices and 3 graph6 lines: 5 items, 5
        # workers, one item a chunk; the 21 + 112 classes on five and six
        # vertices: 8 workers, chunks of ceil(133 / 32) = 5
        lines = [to_graph6(g) for g in (cycle(5), cycle(6), path(4))]
        assert sum(r.graph_count for r in cross_validate(ns=[3], graph6_lines=lines, workers=0).rows) == 7
        assert sum(r.graph_count for r in cross_validate(ns=[5, 6], workers=100).rows) == 728 + 26704
        assert pools == [[5, 1], [8, 5]]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="counts calls in forked workers")
    def test_failed_parallel_census_decides_no_more_items(self, monkeypatch):
        # forked workers inherit the counting evaluate_graph and its shared
        # counter; the first line fails its chunk, and the pool's workers
        # must stop there instead of deciding every other chunk
        calls = multiprocessing.Value("i", 0)

        def counting_evaluate(*args):
            with calls.get_lock():
                calls.value += 1
            return evaluate_graph(*args)

        monkeypatch.setattr("starfactor.census.evaluate_graph", counting_evaluate)
        lines = ["?bad", *[to_graph6(g) for g in (cycle(7), path(7))] * 8000]
        chunksize = -(-len(lines) // 8)  # two workers, four chunks each
        with pytest.raises(Graph6Error):
            cross_validate(graph6_lines=lines, workers=2)
        # a pool left to finish its queue decides every other chunk; the
        # count is read past its lock, which a terminated worker may hold
        assert calls.get_obj().value < len(lines) - chunksize

    def test_uniform_subset_of_members_on_every_row(self):
        result = cross_validate(ns=[4, 5])
        for row in result.rows:
            assert row.u_members <= row.omega_members


@pytest.fixture
def fixed_result():
    return CensusResult(
        rows=[
            CensusRow(
                n=5, girth_class="5", graph_count=120, omega_members=120,
                u_members=120, disagreements=0, cap_exceeded=0,
            ),
            CensusRow(
                n=5, girth_class="inf", graph_count=17, omega_members=14,
                u_members=9, disagreements=0, cap_exceeded=0,
            ),
        ],
        disagreements=[],
    )


class TestReportSnapshots:
    def test_text_snapshot(self, fixed_result):
        expected = (
            "starfactor census v0.1.0 (cap=1000000)\n"
            "n  girth  graphs  omegaMembers  uMembers  disagreements  capExceeded\n"
            "5  5      120     120           120       0              0          \n"
            "5  inf    17      14            9         0              0          \n"
        )
        assert report(fixed_result, fmt="text") == expected

    def test_tsv_snapshot(self, fixed_result):
        expected = (
            "n\tgirth\tgraphs\tomegaMembers\tuMembers\tdisagreements\tcapExceeded\n"
            "5\t5\t120\t120\t120\t0\t0\n"
            "5\tinf\t17\t14\t9\t0\t0\n"
        )
        assert report(fixed_result, fmt="tsv") == expected

    def test_json_snapshot(self, fixed_result):
        payload = json.loads(report(fixed_result, fmt="json"))
        assert payload == {
            "tool": "starfactor",
            "version": "0.1.0",
            "cap": 1000000,
            "rows": [
                {
                    "n": 5, "girthClass": "5", "graphCount": 120,
                    "omegaMembers": 120, "uMembers": 120,
                    "disagreements": 0, "capExceeded": 0,
                },
                {
                    "n": 5, "girthClass": "inf", "graphCount": 17,
                    "omegaMembers": 14, "uMembers": 9,
                    "disagreements": 0, "capExceeded": 0,
                },
            ],
            "disagreements": [],
        }

    def test_unknown_format_rejected(self, fixed_result):
        with pytest.raises(ValueError):
            report(fixed_result, fmt="xml")


class TestFixtureFiles:
    def test_fixture_lists_parse_and_have_expected_shape(self):
        lines = (DATA_DIR / "girth5_connected_n8.g6").read_text().splitlines()
        assert len(lines) == 47
        for line in lines:
            g = parse_graph6(line)
            assert g.n == 8 and girth(g).at_least(5)

    def test_delta2_n8_list(self):
        lines = (DATA_DIR / "delta2_girth5_n8.g6").read_text().splitlines()
        assert len(lines) == 5
        for line in lines:
            g = parse_graph6(line)
            assert min(map(len, g.adjacency)) >= 2 and girth(g).at_least(5)

    def test_petersen_fixture(self):
        lines = (DATA_DIR / "petersen.g6").read_text().splitlines()
        assert len(lines) == 1
        assert parse_graph6(lines[0]) == petersen()
