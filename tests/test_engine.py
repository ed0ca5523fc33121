"""Batched sweep engine versus the per-tree reference implementations.

Every replicate column must reproduce exactly what compute_profile says
about the same tree, including pessimistic tie handling, and the column
generator must consume the same draws as grow_urrt.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootrank import (
    RngStream,
    compute_profile,
    enumerate_recursive_trees,
    generate_parent_matrix,
    grow_urrt,
    rank_index_batch,
)
from rootrank import engine, walks
from rootrank.centrality import SWEEP_MEASURES, jordan_scores
from rootrank.engine import (
    chunk_rows,
    max_root_fraction_batch,
    rank_index_sweep_chunk,
    replicate_chunks,
)
from rootrank.experiments import _fraction_chunk_job
from rootrank.persistence import _track
from rootrank.rng import stream_uniforms
from rootrank.tree import RecursiveTree, subtree_sizes

from conftest import NEAR_PATH, adversarial_compact, children_lists, compact_strategy


def _column_tree(parents, j):
    return RecursiveTree(parents[2:, j].tolist())


class TestGeneration:
    def test_matches_grow_urrt(self):
        parents = generate_parent_matrix(99, 50, 3, 11, stream_base=1000)
        for j in range(8):
            tree = grow_urrt(50, RngStream(99, 1000 + 3 + j))
            assert parents[2:, j].tolist() == tree.parent[2:].tolist()

    def test_padding_rows_zero(self):
        parents = generate_parent_matrix(1, 9, 0, 4)
        assert not parents[0].any() and not parents[1].any()
        assert (parents[2:] >= 1).all()

    def test_n_one(self):
        parents = generate_parent_matrix(1, 1, 0, 3)
        assert parents.shape == (2, 3)
        assert not parents.any()

    def test_columns_contiguous(self):
        parents = generate_parent_matrix(4, 30, 0, 5)
        assert parents.flags.f_contiguous
        assert parents[:, 2].flags.c_contiguous

    @pytest.mark.parametrize("k", [0, 1, 3, 5, 1000])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_stream_uniforms_match_generators(self, seed, k):
        # k = 1, 3 and 5 leave the 4-word Philox buffer part used, so each
        # stream must start from an empty buffer, as a new generator does
        ids = [0, 1, 2**64 - 1]
        rows = [u.copy() for u in stream_uniforms(seed, ids, k)]
        assert len(rows) == len(ids)
        for i, row in zip(ids, rows):
            assert row.tolist() == RngStream(seed, i).generator().random(k).tolist(), i

    @pytest.mark.parametrize("seed, ids", [(0, [5, 2**64]), (0, [-1]), (2**64, [0])])
    def test_stream_uniforms_reject_wide_ids(self, seed, ids):
        with pytest.raises(ValueError, match="64 bits"):
            list(stream_uniforms(seed, ids, 3))

    def test_generation_holds_no_float_matrix(self):
        # Draws are made and mapped one column at a time, so the peak is the
        # returned matrix plus a few column-sized arrays.
        n, rows = 2000, 300
        tracemalloc.start()
        try:
            parents = generate_parent_matrix(8, n, 0, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < parents.nbytes + 3 * 8 * n, (peak, parents.nbytes)


class TestChunking:
    def test_rows_bounds(self):
        assert chunk_rows(10**4, 10**6) == 1599
        assert chunk_rows(10, 10**6) == 4096
        assert chunk_rows(10**8, 100) == 1
        assert chunk_rows(100, 7) == 7

    def test_rows_invalid(self):
        with pytest.raises(ValueError):
            chunk_rows(0, 10)
        with pytest.raises(ValueError):
            chunk_rows(10, 0)

    def test_chunks_cover_range(self):
        chunks = replicate_chunks(10, 4)
        assert chunks == [(0, 4), (4, 8), (8, 10)]
        assert replicate_chunks(4, 4) == [(0, 4)]
        assert replicate_chunks(0, 4) == []

    def test_chunks_depend_only_on_totals(self):
        # worker count never enters, so decomposition is reproducible
        rows = chunk_rows(1000, 500)
        assert replicate_chunks(500, rows) == replicate_chunks(500, chunk_rows(1000, 500))


class TestAgreementWithPerTree:
    @pytest.mark.parametrize("n,reps", [(2, 30), (3, 30), (4, 30), (5, 30),
                                        (8, 20), (17, 12), (60, 8), (257, 4)])
    def test_rank_and_index(self, n, reps):
        parents = generate_parent_matrix(7, n, 0, reps)
        got = rank_index_batch(parents, n)
        for j in range(reps):
            tree = _column_tree(parents, j)
            for tag, measure in SWEEP_MEASURES.items():
                ranks, indexes = got[tag]
                report = compute_profile(tree, measure).report
                assert ranks[j] == report.root_rank, (tag, n, j)
                assert indexes[j] == report.center_index, (tag, n, j)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.one_of(compact_strategy(max_n=24), adversarial_compact()))
    @example(NEAR_PATH)
    def test_shapes_match_compute_profile(self, compact):
        # stars, paths, brooms, caterpillars and twin trees stress the
        # walk's three bounds, the tied twin centroid and exact rumor ties;
        # NEAR_PATH has a vertex as rumor-central as the root that only the
        # rumor bound reaches
        tree = RecursiveTree(list(compact))
        parents = np.zeros((tree.n + 1, 1), dtype=np.int64)
        parents[:, 0] = tree.parent
        got = rank_index_batch(parents, tree.n)
        for tag, measure in SWEEP_MEASURES.items():
            report = compute_profile(tree, measure).report
            assert got[tag][0][0] == report.root_rank, tag
            assert got[tag][1][0] == report.center_index, tag

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_recursive_tree(self, n):
        # all (n - 1)! trees up to n = 8 hold every tie shape the root walk
        # can meet at these sizes
        trees = list(enumerate_recursive_trees(n))
        parents = np.stack([tree.parent for tree in trees], axis=1)
        got = rank_index_batch(parents, n)
        for tag, measure in SWEEP_MEASURES.items():
            reports = [compute_profile(tree, measure).report for tree in trees]
            assert got[tag][0].tolist() == [r.root_rank for r in reports], tag
            assert got[tag][1].tolist() == [r.center_index for r in reports], tag

    @pytest.mark.parametrize("n, reps", [(300, 20), (60, 40)])
    def test_wide_rumor_band(self, monkeypatch, n, reps):
        # Both walks are exact for any band at least as wide as the rounding
        # bound: phi_sign settles every vertex in the band, and the walk goes
        # on below it.  The trajectory meets the band at every prefix tree.
        monkeypatch.setattr(walks, "rumor_band", lambda m, height: 0.5)
        parents = generate_parent_matrix(3, n, 0, reps)
        got = rank_index_batch(parents, n)
        for j in range(reps):
            tree = _column_tree(parents, j)
            for tag, measure in SWEEP_MEASURES.items():
                report = compute_profile(tree, measure).report
                assert got[tag][0][j] == report.root_rank, (tag, n, j)
                assert got[tag][1][j] == report.center_index, (tag, n, j)
        horizon = grow_urrt(200, RngStream(3, n))
        series = _track(horizon, 1, keep_series=True).series
        for m in range(1, horizon.n + 1):
            tree = RecursiveTree(horizon.parent[2 : m + 1].tolist())
            for tag, measure in SWEEP_MEASURES.items():
                report = compute_profile(tree, measure).report
                got_m = (series["rank"][tag][m - 1], series["index"][tag][m - 1])
                assert got_m == (report.root_rank, report.center_index), (tag, m)

    def test_n_one_all_ones(self):
        parents = generate_parent_matrix(5, 1, 0, 6)
        got = rank_index_batch(parents, 1)
        for tag in SWEEP_MEASURES:
            ranks, indexes = got[tag]
            assert ranks.tolist() == [1] * 6
            assert indexes.tolist() == [1] * 6

    @pytest.mark.parametrize(
        "measures", [(tag,) for tag in SWEEP_MEASURES] + [("degree", "jordan")], ids="-".join
    )
    def test_measure_subset_and_order(self, measures):
        # a degree-only call skips the size pass; every subset must still
        # repeat its part of the five-measure call
        parents = generate_parent_matrix(3, 40, 0, 5)
        got = rank_index_batch(parents, 40, measures=measures)
        assert list(got) == list(measures)
        full = rank_index_batch(parents, 40)
        for tag in measures:
            assert got[tag][0].tolist() == full[tag][0].tolist()
            assert got[tag][1].tolist() == full[tag][1].tolist()

    def test_unknown_measure_rejected(self):
        parents = generate_parent_matrix(3, 4, 0, 2)
        with pytest.raises(ValueError, match="unknown engine measures"):
            rank_index_batch(parents, 4, measures=("jordan", "eccentricity"))

    def test_sweep_chunk_equals_generate_then_batch(self):
        direct = rank_index_sweep_chunk(17, 33, 5, 15, stream_base=64)
        parents = generate_parent_matrix(17, 33, 5, 15, stream_base=64)
        via = rank_index_batch(parents, 33)
        for tag in SWEEP_MEASURES:
            assert direct[tag][0].tolist() == via[tag][0].tolist()
            assert direct[tag][1].tolist() == via[tag][1].tolist()


class TestMaxRootFraction:
    def test_matches_per_tree(self):
        parents = generate_parent_matrix(31, 120, 0, 25)
        got = max_root_fraction_batch(parents, 120)
        for j in range(25):
            assert got[j] == jordan_scores(_column_tree(parents, j))[1] / 120

    def test_two_vertices(self):
        parents = generate_parent_matrix(1, 2, 0, 3)
        assert max_root_fraction_batch(parents, 2).tolist() == [0.5, 0.5, 0.5]

    def test_n_one_rejected(self):
        parents = generate_parent_matrix(1, 1, 0, 2)
        with pytest.raises(ValueError):
            max_root_fraction_batch(parents, 1)


class TestTieSemantics:
    def test_star_columns(self):
        # every non-root vertex of a star ties; largest label must win
        n, reps = 6, 3
        parents = np.zeros((n + 1, reps), dtype=np.int64)
        parents[2:] = 1
        got = rank_index_batch(parents, n)
        ranks, indexes = got["degree"]
        assert ranks.tolist() == [1] * reps  # root strictly ahead on degree
        assert indexes.tolist() == [1] * reps
        ranks, indexes = got["jordan"]
        assert ranks.tolist() == [1] * reps  # root is the unique center
        assert indexes.tolist() == [1] * reps

    def test_path_columns(self):
        # path 1-2-3-4: centers {2, 3}, root rank 3 under pessimistic ties
        parents = np.array([[0], [0], [1], [2], [3]], dtype=np.int64)
        got = rank_index_batch(parents, 4)
        for tag in ("jordan", "closeness", "rumor", "betweenness"):
            ranks, indexes = got[tag]
            assert indexes[0] == 3, tag
            assert ranks[0] == compute_profile(
                _column_tree(parents, 0), SWEEP_MEASURES[tag]
            ).report.root_rank


class TestBlocks:
    """Blocks of columns share one merged tree for their subtree sizes.

    The results must not depend on where the block boundaries fall, on the
    layout of the parent matrix, or on the height of the merged tree.
    """

    def _check(self, parents, n, trees):
        # trees: {column: RecursiveTree} held to the per-tree references
        c_order = np.ascontiguousarray(parents)
        assert c_order.flags.c_contiguous and not c_order.flags.f_contiguous
        got = rank_index_batch(parents, n)
        for tag, (rank, index) in rank_index_batch(c_order, n).items():
            assert got[tag][0].tolist() == rank.tolist(), tag
            assert got[tag][1].tolist() == index.tolist(), tag
        fractions = max_root_fraction_batch(parents, n)
        assert fractions.tolist() == max_root_fraction_batch(c_order, n).tolist()
        for j, tree in trees.items():
            assert parents[:, j].tolist() == tree.parent.tolist()
            for tag, measure in SWEEP_MEASURES.items():
                report = compute_profile(tree, measure).report
                assert got[tag][0][j] == report.root_rank, (tag, j)
                assert got[tag][1][j] == report.center_index, (tag, j)
            sizes = subtree_sizes(tree)
            assert fractions[j] == sizes[children_lists(tree)[1]].max() / n, j

    def test_several_blocks_ragged_last(self):
        n, rows, seed, base = 100, 1300, 23, 500
        width = engine._BLOCK_VERTICES // (n + 1)
        assert width < rows and rows % width  # several blocks, the last one short
        parents = generate_parent_matrix(seed, n, 0, rows, stream_base=base)
        sampled = {0, width - 1, width, 2 * width - 1, 2 * width, rows - 1}
        self._check(parents, n, {j: grow_urrt(n, RngStream(seed, base + j)) for j in sampled})

    def test_one_column_per_block(self):
        n, seed, base = 70_000, 29, 7
        assert engine._BLOCK_VERTICES // (n + 1) == 0  # clamped to one column
        parents = generate_parent_matrix(seed, n, 0, 2, stream_base=base)
        self._check(parents, n, {j: grow_urrt(n, RngStream(seed, base + j)) for j in (0, 1)})

    def test_tall_column(self):
        # A broom column with a 1000-edge handle makes the merged tree of
        # the three columns over a thousand levels deep.
        n, seed = 3000, 31
        parents = generate_parent_matrix(seed, n, 0, 3)
        broom = RecursiveTree([min(v - 1, 1000) for v in range(2, n + 1)])
        parents[:, 1] = broom.parent
        trees = {0: grow_urrt(n, RngStream(seed, 0)), 1: broom,
                 2: grow_urrt(n, RngStream(seed, 2))}
        self._check(parents, n, trees)


class TestChildIndex:
    """Long walks look children up in an index, not by scanning the column.

    Each column scans at most a fixed number of times, and the ranks from
    the index equal ``compute_profile``.
    """

    @staticmethod
    def _one_child_root(n, seed):
        # vertex 2, the root's only child, roots a URRT on n - 1 vertices,
        # so the walk visits every vertex
        below = grow_urrt(n - 1, RngStream(seed, 0)).parent[2:]
        return RecursiveTree([1] + (below + 1).tolist())

    # at 70_000 a column has more than 2^16 slots, so it scans up to
    # _WIDE_SCANS times and group_by indexes it by composite keys
    @pytest.mark.parametrize("shape, n", [("one-child root", 10_000), ("broom", 3000),
                                          ("one-child root", 70_000)])
    def test_long_walks_match_compute_profile(self, monkeypatch, shape, n):
        if shape == "broom":
            tree = RecursiveTree([min(v - 1, 1000) for v in range(2, n + 1)])
        else:
            tree = self._one_child_root(n, 61)
        parents = generate_parent_matrix(61, n, 0, 2)
        parents[:, 0] = tree.parent
        made = []

        class Counting(engine._Children):
            def __init__(self, column):
                super().__init__(column)
                self.scanned = 0
                made.append(self)

            def scan(self, v):
                self.scanned += 1
                return super().scan(v)

        monkeypatch.setattr(engine, "_Children", Counting)
        got = rank_index_batch(parents, n)
        limit = engine._SCANS if n + 1 <= 2**16 else engine._WIDE_SCANS
        assert len(made) == 2
        assert all(kids.scanned <= limit for kids in made), [k.scanned for k in made]
        assert len(made[0]) > limit  # the long walk read the index
        for j, column_tree in ((0, tree), (1, _column_tree(parents, 1))):
            for tag, measure in SWEEP_MEASURES.items():
                report = compute_profile(column_tree, measure).report
                assert got[tag][0][j] == report.root_rank, (tag, j)
                assert got[tag][1][j] == report.center_index, (tag, j)


class TestSizePass:
    """The engine's pointer-jumping size pass equals ``subtree_sizes`` per column."""

    @staticmethod
    def _check_block(parents, n, block):
        lo, columns, sizes = block
        for i, row in enumerate(sizes):
            tree = RecursiveTree(parents[2:, lo + i].tolist())
            assert row[1:].tolist() == subtree_sizes(tree)[1:].tolist(), lo + i
        return columns.shape[0]

    # (400, 166) is one full block of 163 columns, then a ragged block of 3
    # that reuses the call's scratch arrays
    @pytest.mark.parametrize("n, rows", [(1, 5), (2, 7), (500, 300), (3000, 25), (70_000, 3),
                                         (400, 166)])
    def test_matches_subtree_sizes(self, n, rows):
        # uniform columns over several blocks, the last one ragged, with paths
        # (height n - 1, about log2 n rounds) first and second to last, so
        # the ragged block has one, and a star last
        parents = generate_parent_matrix(59, n, 0, rows)
        if n > 2:
            parents[2:, [0, rows - 2]] = np.arange(1, n)[:, None]
            parents[2:, rows - 1] = 1
        seen = sum(self._check_block(parents, n, block) for block in engine._blocks(parents, n))
        assert seen == rows

    @pytest.mark.parametrize("n, rows", [(1, 5), (2, 7), (400, 166)])
    def test_scratch_garbage_is_never_read(self, monkeypatch, n, rows):
        # np.empty may return any bytes: with nonzero ones in the scratch, a
        # slot the pass reads before it sets it shows on every allocator
        parents = generate_parent_matrix(67, n, 0, rows)
        empty = np.empty

        def garbage(*args, **kwargs):
            out = empty(*args, **kwargs)
            out.fill(3)
            return out

        monkeypatch.setattr(np, "empty", garbage)
        seen = sum(self._check_block(parents, n, block) for block in engine._blocks(parents, n))
        assert seen == rows

    def test_cycle_is_rejected(self):
        # 2 -> 3 -> 4 -> 2 never reaches the root; the pass stops and says so
        parents = np.zeros((5, 1), dtype=np.int64)
        parents[2:, 0] = [3, 4, 2]
        with pytest.raises(ValueError, match="cycle"):
            list(engine._blocks(parents, 4))


@pytest.mark.parametrize("reduce", [rank_index_batch, max_root_fraction_batch],
                         ids=lambda f: f.__name__)
def test_chunk_memory_below_half_the_parents(reduce):
    # Sizes live one block at a time, so a chunk needs no second matrix.
    n, rows = 4000, 400
    parents = generate_parent_matrix(37, n, 0, rows)
    tracemalloc.start()
    try:
        reduce(parents, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * parents.nbytes, (peak, parents.nbytes)


class TestStreamedChunks:
    """Chunk jobs grow and reduce their replicates one block at a time.

    The streamed result must equal the reduction of the chunk's whole parent
    matrix, the work must stay visible to wrappers on the module-level
    ``generate_parent_matrix`` and ``rank_index_batch``, and memory must
    not grow with the chunk.
    """

    # (n, width, start, stop, stream_base): three columns per block with a
    # ragged last block, then one column per block.
    CASES = [(20_000, 3, 5, 12, 300), (70_000, 1, 4, 7, 11)]

    @pytest.mark.parametrize("n, width, start, stop, base", CASES)
    def test_rank_chunk_equals_whole_matrix(self, n, width, start, stop, base):
        assert engine._block_width(n) == width < stop - start
        streamed = rank_index_sweep_chunk(41, n, start, stop, stream_base=base)
        whole = rank_index_batch(generate_parent_matrix(41, n, start, stop, base), n)
        for tag in SWEEP_MEASURES:
            assert streamed[tag][0].tolist() == whole[tag][0].tolist(), tag
            assert streamed[tag][1].tolist() == whole[tag][1].tolist(), tag

    @pytest.mark.parametrize("n, width, start, stop, base", CASES)
    def test_fraction_chunk_equals_whole_matrix(self, n, width, start, stop, base):
        assert engine._block_width(n) == width < stop - start
        streamed = _fraction_chunk_job(43, n, start, stop, stream_base=base)
        whole = max_root_fraction_batch(generate_parent_matrix(43, n, start, stop, base), n)
        assert streamed.tolist() == whole.tolist()

    def test_fraction_chunk_n_one_rejected(self):
        with pytest.raises(ValueError):
            _fraction_chunk_job(1, 1, 0, 3, 0)

    def test_layer_wrappers_see_every_block(self, monkeypatch):
        # Wrap the module attributes, as the benchmark's tracer does.
        n, start, stop, base = 3000, 10, 60, 90
        width = engine._block_width(n)
        generated, ranked = [], []
        generate, rank = engine.generate_parent_matrix, engine.rank_index_batch

        def counting_generate(*args):
            generated.append(args)
            return generate(*args)

        def counting_rank(parents, *args):
            ranked.append(parents)
            return rank(parents, *args)

        monkeypatch.setattr(engine, "generate_parent_matrix", counting_generate)
        monkeypatch.setattr(engine, "rank_index_batch", counting_rank)
        rank_index_sweep_chunk(47, n, start, stop, stream_base=base)
        blocks = -(-(stop - start) // width)
        assert blocks >= 3 and len(generated) == len(ranked) == blocks
        assert np.hstack(ranked).tolist() == generate(47, n, start, stop, base).tolist()

    @pytest.mark.parametrize("job", [rank_index_sweep_chunk, _fraction_chunk_job],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("rows", [400, 1600])
    def test_memory_independent_of_chunk_length(self, job, rows):
        # Peak stays below half of one 400-column parent matrix for either
        # chunk length: no chunk-wide matrix is built.
        n = 4000
        limit = 0.5 * (n + 1) * 400 * np.dtype(np.int64).itemsize
        tracemalloc.start()
        try:
            job(53, n, 0, rows, stream_base=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit, (peak, limit)
