"""Unit tests for interaction ingestion, splits, sampling and groupings."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnre import dataio
from cnre.synthetic import make_planted_dataset


VIEW_CART_BUY = dataio.BehaviorSpec(("view", "cart", "buy"))


def _toy_dataset():
    view = {(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)}
    cart = {(0, 0), (1, 2), (2, 1)}
    buy = {(0, 0), (0, 1), (1, 2), (2, 1), (2, 2)}
    return dataio.InteractionDataset.from_edges(
        spec=VIEW_CART_BUY, num_users=3, num_items=3,
        per_behavior_edges=[view, cart, buy],
        user_ids=["u0", "u1", "u2"], item_ids=["i0", "i1", "i2"])


class TestBehaviorSpec:
    def test_target_is_last(self):
        assert VIEW_CART_BUY.target == "buy"
        assert VIEW_CART_BUY.target_index == 2

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            dataio.BehaviorSpec(("buy",))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            dataio.BehaviorSpec(("view", "view", "buy"))


class TestLoadInteractions:
    def test_parses_and_dedups(self, tmp_path):
        p = tmp_path / "view.tsv"
        p.write_text("a\tx\nb\ty\na\tx\n\n", encoding="utf-8")
        pairs = dataio.load_interactions(str(p), "view")
        assert pairs == {("a", "x"), ("b", "y")}

    def test_malformed_line_reports_lineno(self, tmp_path):
        p = tmp_path / "view.tsv"
        p.write_text("a\tx\nnot-a-pair\n", encoding="utf-8")
        with pytest.raises(dataio.ParseError, match="line 2"):
            dataio.load_interactions(str(p), "view")

    def test_missing_field_rejected(self, tmp_path):
        p = tmp_path / "view.tsv"
        p.write_text("a\t\n", encoding="utf-8")
        with pytest.raises(dataio.ParseError):
            dataio.load_interactions(str(p), "view")

    def test_empty_file_warns(self, tmp_path):
        p = tmp_path / "view.tsv"
        p.write_text("", encoding="utf-8")
        with pytest.warns(UserWarning):
            dataio.load_interactions(str(p), "view")

    def test_byte_order_mark_inside_file_rejected(self, tmp_path):
        p = tmp_path / "view.tsv"
        p.write_text("u1\ti1\n\ufeffu2\ti2\n", encoding="utf-8")
        with pytest.raises(dataio.ParseError, match="line 2"):
            dataio.load_interactions(str(p), "view")


class TestBuildDataset:
    def test_id_maps_are_bijections(self):
        ds = make_planted_dataset(num_users=10, num_items=8)
        for u in range(ds.num_users):
            assert ds.encode_user(ds.decode_user(u)) == u
        for i in range(ds.num_items):
            assert ds.encode_item(ds.decode_item(i)) == i
        assert len(set(ds.user_ids)) == ds.num_users
        assert len(set(ds.item_ids)) == ds.num_items

    def test_unknown_raw_id_raises(self):
        ds = _toy_dataset()
        with pytest.raises(KeyError):
            ds.encode_user("nobody")

    def test_deterministic_indexing(self):
        pairs = [{("b", "y"), ("a", "x")}, {("a", "x")}]
        spec = dataio.BehaviorSpec(("view", "buy"))
        d1 = dataio.build_dataset_from_pairs(pairs, spec)
        d2 = dataio.build_dataset_from_pairs([set(p) for p in pairs], spec)
        assert d1.user_ids == d2.user_ids == ["a", "b"]
        assert d1.per_behavior_edges == d2.per_behavior_edges

    def test_edge_sets_are_immutable(self):
        ds = _toy_dataset()
        with pytest.raises(AttributeError):
            ds.per_behavior_edges[0].add((2, 0))
        with pytest.raises(AttributeError):
            ds.target_edges().discard((0, 0))
        with pytest.raises(TypeError):
            ds.per_behavior_edges[0] = set()
        with pytest.raises(AttributeError):
            ds.per_behavior_edges = ()
        assert ds.total_interactions() == 14

    def test_chain_codes_carry_one_bit_per_behavior(self):
        ds = _toy_dataset()
        users, items = np.divmod(np.arange(9), 3)
        codes = ds.chain_codes(users, items)
        for u, i, code in zip(users, items, codes):
            want = sum(1 << b for b, edges in enumerate(ds.per_behavior_edges)
                       if (u, i) in edges)
            assert code == want

    def test_build_dataset_from_files(self, tmp_path):
        files = {}
        for name, rows in [("view", "u\ti1\nu\ti2\n"), ("buy", "u\ti1\n")]:
            p = tmp_path / f"{name}.tsv"
            p.write_text(rows, encoding="utf-8")
            files[name] = str(p)
        ds = dataio.build_dataset(files, dataio.BehaviorSpec(("view", "buy")))
        assert ds.num_users == 1 and ds.num_items == 2
        assert len(ds.edges("view")) == 2 and len(ds.target_edges()) == 1

    def test_byte_order_mark_leaves_ids_unchanged(self, tmp_path):
        rows = {"view": "u1\ti1\nu2\ti2\n", "buy": "u1\ti2\nu2\ti1\n"}
        spec = dataio.BehaviorSpec(("view", "buy"))
        datasets = []
        for prefix in ("", "\ufeff"):
            files = {}
            for name, text in rows.items():
                p = tmp_path / f"{name}{len(prefix)}.tsv"
                p.write_text(prefix + text, encoding="utf-8")
                files[name] = str(p)
            datasets.append(dataio.build_dataset(files, spec))
        plain, bom = datasets
        assert bom.user_ids == plain.user_ids == ["u1", "u2"]
        assert bom.item_ids == plain.item_ids
        assert bom.per_behavior_edges == plain.per_behavior_edges

    def test_missing_behavior_file_rejected(self, tmp_path):
        p = tmp_path / "view.tsv"
        p.write_text("u\ti\n", encoding="utf-8")
        with pytest.raises(ValueError, match="buy"):
            dataio.build_dataset({"view": str(p)}, dataio.BehaviorSpec(("view", "buy")))


class TestConversionOrder:
    def test_hand_enumerated_rates(self):
        # view: 4/6 of its edges convert to buy; cart: 3/3 convert.
        ds = _toy_dataset()
        assert dataio.compute_conversion_order(ds) == ["view", "cart", "buy"]

    def test_tie_breaks_keep_spec_order(self):
        edges = [{(0, 0)}, {(0, 1)}, {(0, 0), (0, 1)}]
        ds = dataio.InteractionDataset.from_edges(
            spec=VIEW_CART_BUY, num_users=1, num_items=2,
            per_behavior_edges=edges, user_ids=["u"], item_ids=["a", "b"])
        assert dataio.compute_conversion_order(ds) == ["view", "cart", "buy"]

    def test_empty_behavior_warns_and_sorts_first(self):
        edges = [set(), {(0, 0)}, {(0, 0)}]
        ds = dataio.InteractionDataset.from_edges(
            spec=VIEW_CART_BUY, num_users=1, num_items=1,
            per_behavior_edges=edges, user_ids=["u"], item_ids=["a"])
        with pytest.warns(UserWarning):
            order = dataio.compute_conversion_order(ds)
        assert order[0] == "view" and order[-1] == "buy"


class TestReorder:
    def test_permutes_edges(self):
        ds = _toy_dataset()
        out = dataio.reorder_behaviors(ds, ["cart", "view", "buy"])
        assert out.spec.names == ("cart", "view", "buy")
        assert out.edges("cart") == ds.edges("cart")
        assert out.edges("view") == ds.edges("view")

    def test_target_must_stay_last(self):
        ds = _toy_dataset()
        with pytest.raises(ValueError):
            dataio.reorder_behaviors(ds, ["buy", "view", "cart"])

    def test_must_be_permutation(self):
        ds = _toy_dataset()
        with pytest.raises(ValueError):
            dataio.reorder_behaviors(ds, ["view", "view", "buy"])


class TestLeaveOneOut:
    def test_partition_property(self):
        ds = make_planted_dataset()
        split = dataio.leave_one_out_split(ds, seed=0)
        held = {(u, i) for u, i in split.test_positives.items()}
        train_t = split.train.target_edges()
        assert held.isdisjoint(train_t)
        assert held | train_t == ds.target_edges()

    def test_only_multi_interaction_users_held_out(self):
        edges = [{(0, 0), (1, 0), (1, 1)}, {(0, 0), (1, 0), (1, 1)}]
        ds = dataio.InteractionDataset.from_edges(
            spec=dataio.BehaviorSpec(("view", "buy")), num_users=2, num_items=2,
            per_behavior_edges=edges, user_ids=["a", "b"], item_ids=["x", "y"])
        split = dataio.leave_one_out_split(ds, seed=3)
        assert set(split.test_positives) == {1}

    def test_aux_edges_untouched(self):
        ds = make_planted_dataset()
        split = dataio.leave_one_out_split(ds, seed=1)
        for b in range(len(ds.spec) - 1):
            assert split.train.per_behavior_edges[b] == ds.per_behavior_edges[b]

    def test_seed_changes_choice(self):
        ds = make_planted_dataset()
        a = dataio.leave_one_out_split(ds, seed=0).test_positives
        b = dataio.leave_one_out_split(ds, seed=99).test_positives
        assert a != b  # same users, different held-out items somewhere


class TestBprSampling:
    def test_negatives_never_observed(self):
        ds = make_planted_dataset()
        rng = np.random.default_rng(0)
        triples = dataio.sample_bpr_triples(ds, "buy", 500, rng)
        seen = ds.user_items(ds.spec.target_index)
        assert triples.shape == (500, 3) and triples.dtype == np.int64
        for u, pos, neg in triples.tolist():
            assert (u, pos) in ds.target_edges()
            assert neg not in seen[u]

    def test_negative_distribution_roughly_uniform(self):
        edges = [{(0, i) for i in range(2)}, {(0, 0), (0, 1)}]
        ds = dataio.InteractionDataset.from_edges(
            spec=dataio.BehaviorSpec(("view", "buy")), num_users=1, num_items=12,
            per_behavior_edges=edges, user_ids=["u"],
            item_ids=[f"i{k}" for k in range(12)])
        rng = np.random.default_rng(1)
        triples = dataio.sample_bpr_triples(ds, "buy", 5000, rng)
        counts = np.bincount(triples[:, 2], minlength=12)
        assert counts[0] == 0 and counts[1] == 0
        # 10 candidate negatives, expect 500 each; chi-square df=9 at p~1e-6 is ~47
        expected = 5000 / 10.0
        chi2 = float(np.sum((counts[2:] - expected) ** 2 / expected))
        assert chi2 < 47.0

    def test_saturated_user_skipped_with_warning(self):
        # user 0 saw both items (no negative exists); user 1 still has one
        edges = [{(0, 0), (0, 1), (1, 0)}, {(0, 0), (1, 0)}]
        ds = dataio.InteractionDataset.from_edges(
            spec=dataio.BehaviorSpec(("view", "buy")), num_users=2, num_items=2,
            per_behavior_edges=edges, user_ids=["a", "b"], item_ids=["x", "y"])
        with pytest.warns(UserWarning, match="skipped"):
            triples = dataio.sample_bpr_triples(ds, "view", 20,
                                                np.random.default_rng(0))
        assert (triples[:, 0] == 1).all() and (triples[:, 2] == 1).all()

    def test_fully_saturated_behavior_rejected(self):
        edges = [{(0, 0), (0, 1)}, {(0, 0)}]
        ds = dataio.InteractionDataset.from_edges(
            spec=dataio.BehaviorSpec(("view", "buy")), num_users=1, num_items=2,
            per_behavior_edges=edges, user_ids=["a"], item_ids=["x", "y"])
        with pytest.raises(ValueError, match="no negatives"):
            dataio.sample_bpr_triples(ds, "view", 4, np.random.default_rng(0))

    def test_empty_behavior_rejected(self):
        edges = [set(), {(0, 0)}]
        ds = dataio.InteractionDataset.from_edges(
            spec=dataio.BehaviorSpec(("view", "buy")), num_users=1, num_items=2,
            per_behavior_edges=edges, user_ids=["u"], item_ids=["a", "b"])
        with pytest.raises(ValueError):
            dataio.sample_bpr_triples(ds, "view", 4, np.random.default_rng(0))


class TestSparsityGroups:
    def test_partition_and_ordering(self):
        ds = make_planted_dataset()
        groups = dataio.group_users_by_sparsity(ds, n_groups=4)
        flat = [u for g in groups for u in g]
        assert sorted(flat) == list(range(ds.num_users))
        counts = np.zeros(ds.num_users)
        for edges in ds.per_behavior_edges:
            for u, _ in edges:
                counts[u] += 1
        maxima = [max(counts[u] for u in g) for g in groups]
        minima = [min(counts[u] for u in g) for g in groups]
        for a, b in zip(maxima, minima[1:]):
            assert a <= b

    def test_too_many_groups_rejected(self):
        ds = _toy_dataset()
        with pytest.raises(ValueError):
            dataio.group_users_by_sparsity(ds, n_groups=10)


class TestDropHistory:
    def test_zero_fractions_are_identity(self):
        ds = make_planted_dataset()
        out = dataio.drop_history(ds, 0.0, 0.5, seed=0)
        assert out.per_behavior_edges == ds.per_behavior_edges

    def test_drop_count_oracle(self):
        ds = make_planted_dataset()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = dataio.drop_history(ds, 1.0, 0.5, seed=0)
        before = {}
        after = {}
        for edges_b, edges_a in zip(ds.per_behavior_edges, out.per_behavior_edges):
            for u, _ in edges_b:
                before[u] = before.get(u, 0) + 1
            for u, _ in edges_a:
                after[u] = after.get(u, 0) + 1
        for u, n in before.items():
            expected = n - int(round(0.5 * n))
            assert after.get(u, 0) == expected

    def test_original_untouched(self):
        ds = make_planted_dataset()
        total = ds.total_interactions()
        dataio.drop_history(ds, 1.0, 0.3, seed=2)
        assert ds.total_interactions() == total

    def test_bad_fraction_rejected(self):
        ds = make_planted_dataset()
        with pytest.raises(ValueError):
            dataio.drop_history(ds, 1.5, 0.5, seed=0)


# byte runs that hit the parser's edge cases more often than uniform bytes do
_TSV_PIECES = st.one_of(
    st.binary(max_size=4),
    st.sampled_from([b"u1", b"i1", b"\t", b"\n", b"\r", b"\r\n", b"\xef\xbb\xbf",
                     b"\xff", b"\xc3", b"\xe2\x80\xa8", b" ", b"\x00"]),
)


class TestIngestionFuzz:
    """Arbitrary bytes in one behavior file: a clean dataset or a ValueError, nothing else."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_arbitrary_bytes_in_one_file(self, tmp_path_factory, data):
        workdir = tmp_path_factory.mktemp("tsv")
        blob = b"".join(data.draw(st.lists(_TSV_PIECES, max_size=12)))
        fuzzed = data.draw(st.sampled_from(VIEW_CART_BUY.names))
        files = {}
        for name in VIEW_CART_BUY.names:
            p = workdir / f"{name}.tsv"
            p.write_bytes(blob if name == fuzzed else b"u1\ti1\nu2\ti2\n")
            files[name] = str(p)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ds = dataio.build_dataset(files, VIEW_CART_BUY)
        except ValueError as exc:
            assert (isinstance(exc, (dataio.ParseError, UnicodeDecodeError))
                    or str(exc) == "target behavior file is empty"), repr(exc)
            return
        for raw in [*ds.user_ids, *ds.item_ids]:
            assert raw and not set(raw) & {"\t", "\n", "\r", "\ufeff"}, repr(raw)
