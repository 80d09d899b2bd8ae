"""Property tests pinning the array kernels to their scalar references.

Random small datasets drive the edge matrices and every helper derived
from them, the chain-code lookup and dispatch, the batched reasoner, the
memoized item neighbors and the pooled-row tables; each is compared with
a set-based or per-pair reference written out here, or with the uncached
path it replaces. The dense ids of raw pairs are compared with the
sorted-pair builder, the columnar TSV reader with the line-by-line
reader it replaced, and the sigmoid with its boolean-mask form. The
fused propagation kernels and the reasoner's group scorers are compared
with their op-by-op tape composition (``unfused.py``), forward and grads.
"""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cnre import dataio, propagation, reasoning, retrieval, tensorgrad as tg, training
from cnre.reasoning import PreferenceStrength as P

import unfused
from test_dataio import total_interactions
from test_reasoning import confidence_score

SETTINGS = settings(max_examples=30, deadline=None)


@st.composite
def edge_sets(draw, max_users=6, max_items=8):
    """(users, items, edges): every (u, i) pair draws its chain code, so all chain shapes occur."""
    n_b = draw(st.integers(2, 4))
    m = draw(st.integers(1, max_users))
    n = draw(st.integers(2, max_items))
    codes = draw(st.lists(st.integers(0, (1 << n_b) - 1), min_size=m * n, max_size=m * n))
    edges = [{divmod(p, n) for p, c in enumerate(codes) if c >> k & 1} for k in range(n_b)]
    return m, n, edges


def _dataset(m, n, edges):
    return dataio.InteractionDataset.from_edges(
        spec=dataio.BehaviorSpec(tuple(f"b{k}" for k in range(len(edges)))),
        num_users=m, num_items=n, per_behavior_edges=edges,
        user_ids=[f"u{k}" for k in range(m)], item_ids=[f"i{k}" for k in range(n)])


@st.composite
def datasets(draw, max_users=6, max_items=8):
    return _dataset(*draw(edge_sets(max_users, max_items)))


def _entries(matrix):
    """Stored (row, col) pairs of a CSR, in storage order."""
    return list(zip(dataio.entry_rows(matrix).tolist(), matrix.indices.tolist()))


def _assert_same_csr(got, want):
    assert got.shape == want.shape
    for field in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))


def _reference_adjacency(edges, m, n):
    """Normalized adjacency of an edge set, built from the sorted pairs through COO."""
    if not edges:
        return sp.csr_matrix((m, n))
    arr = np.array(sorted(edges), dtype=np.int64)
    us, its = arr[:, 0], arr[:, 1]
    deg_u = np.bincount(us, minlength=m).astype(np.float64)
    deg_i = np.bincount(its, minlength=n).astype(np.float64)
    return sp.csr_matrix((1.0 / np.sqrt(deg_u[us] * deg_i[its]), (us, its)), shape=(m, n))


@SETTINGS
@given(edge_sets())
def test_edge_matrices_are_canonical_read_only_and_match_the_sets(case):
    m, n, edges = case
    ds = _dataset(m, n, edges)
    assert (ds.num_users, ds.num_items) == (m, n)
    for b, (mat, want) in enumerate(zip(ds.matrices, edges)):
        assert _entries(mat) == sorted(want)
        assert mat.data.tolist() == [1] * len(want)
        assert not any(a.flags.writeable for a in (mat.data, mat.indices, mat.indptr))
        assert ds.per_behavior_edges[b] == want
        assert ds.user_items(b) == [{i for uu, i in want if uu == u} for u in range(m)]
        for u in range(m):
            assert ds.items_of(b, u).tolist() == sorted(i for uu, i in want if uu == u)
    assert total_interactions(ds) == sum(len(e) for e in edges)
    # repeated and unordered pairs give the same matrix
    for mat, want in zip(ds.matrices, edges):
        pairs = np.array(sorted(want) * 2, dtype=np.int64).reshape(-1, 2)[::-1]
        _assert_same_csr(dataio.edge_matrix(pairs[:, 0], pairs[:, 1], m, n), mat)


def _reference_build(per_behavior_pairs, spec):
    """First-seen ids by the definition: each behavior's pairs sorted by (str(u), str(i))."""
    user_index, item_index = {}, {}
    dense = [[(user_index.setdefault(u, len(user_index)),
               item_index.setdefault(i, len(item_index)))
              for u, i in sorted(pairs, key=lambda p: (str(p[0]), str(p[1])))]
             for pairs in per_behavior_pairs]
    return dataio.InteractionDataset.from_edges(spec, len(user_index), len(item_index), dense,
                                                list(user_index), list(item_index))


# int ids past one digit (str order puts 10 before 2), str ids, and both mixed
RAW_IDS = st.sampled_from([st.integers(0, 120), st.text("ab12", max_size=3),
                           st.integers(0, 120) | st.text("ab12", max_size=3)])


@st.composite
def raw_pair_collections(draw):
    """Raw pairs per behavior: lists (repeats allowed) or sets, any of them empty."""
    ids = draw(RAW_IDS)
    users = draw(st.lists(ids, min_size=1, max_size=8, unique_by=str))
    items = draw(st.lists(ids, min_size=1, max_size=8, unique_by=str))
    pair = st.tuples(st.sampled_from(users), st.sampled_from(items))
    behaviors = draw(st.lists(st.lists(pair, max_size=12), min_size=2, max_size=4))
    return [set(b) if draw(st.booleans()) else b for b in behaviors]


@SETTINGS
@given(raw_pair_collections())
@example([[], [], []])
@example([[(2, 10), (10, 2)], [(3, "x"), (2, 10), (2, 10)]])  # later users, repeats
def test_first_seen_ids_match_the_sorted_pair_reference(per_behavior_pairs):
    spec = dataio.BehaviorSpec(tuple(f"b{k}" for k in range(len(per_behavior_pairs))))
    got = dataio.build_dataset_from_pairs(per_behavior_pairs, spec)
    want = _reference_build(per_behavior_pairs, spec)
    assert (got.num_users, got.num_items) == (want.num_users, want.num_items)
    assert got.user_ids == want.user_ids and got.item_ids == want.item_ids
    for g, w in zip(got.matrices, want.matrices):
        _assert_same_csr(g, w)
        assert not any(a.flags.writeable for a in (g.data, g.indices, g.indptr))


def test_raw_ids_with_the_same_str_raise():
    spec = dataio.BehaviorSpec(("view", "buy"))
    users = [{(1, "a"), ("1", "a"), ("x", "b"), ("2", "c"), (2, "c")}, {(1, "a"), ("1", "a")}]
    with pytest.raises(dataio.InputError, match=r"user ids (1 and '1'|'1' and 1) .* '1'"):
        dataio.build_dataset_from_pairs(users, spec)
    items = [{("u", 7), ("v", "7")}, {("u", 7)}]
    with pytest.raises(dataio.InputError, match=r"item ids (7 and '7'|'7' and 7) .* '7'"):
        dataio.build_dataset_from_pairs(items, spec)


def _reference_load(path, behavior):
    """The line-by-line reader ``load_interactions`` replaces: a set of raw pairs."""
    pairs = set()
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2 or not parts[0] or not parts[1] or "\ufeff" in line:
                    raise dataio.ParseError(
                        f"{path}: line {lineno}: expected '<user>\\t<item>', got {line!r}"
                    )
                pairs.add((parts[0], parts[1]))
    except UnicodeDecodeError as exc:
        raise dataio.ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise dataio.ParseError(f"cannot read interaction file {path}: {exc}") from exc
    if not pairs:
        warnings.warn(f"behavior '{behavior}' file {path} is empty")
    return pairs


# ids with spaces and with characters str.splitlines breaks lines at but file iteration does not
RAW_ID_TEXT = st.text(st.sampled_from(["a", "1", " ", "\x0b", "\x1c", "\x85", "\u2028"]),
                      min_size=1, max_size=3)
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def tsv_texts(draw, malformed=True):
    """A behavior file's text: lines over a few ids (so pairs repeat), any line ends, blank
    lines, maybe a leading byte-order mark; with malformed, also bad lines and stray
    pieces (empty fields, 0 or 2 tabs, byte-order marks later in the file)."""
    users, items = (draw(st.lists(RAW_ID_TEXT, min_size=1, max_size=3)) for _ in "ui")
    line = st.builds("\t".join, st.tuples(st.sampled_from(users), st.sampled_from(items)))
    line |= st.just("")
    if malformed:
        line |= st.sampled_from(["u\t", "\ti", "\t", "u", "u\ti\tj", "\ufeffu\ti", "u\ti\ufeff"])
    body = "".join(draw(st.lists(st.tuples(line, LINE_ENDS).map("".join), max_size=8)))
    if malformed:
        body += "".join(draw(st.lists(st.sampled_from(["\t", "\ufeff", "\r", "\x85", "u"]),
                                      max_size=3)))
    return ("\ufeff" if draw(st.booleans()) else "") + body


def _read(reader, path):
    """(result or ParseError message, warning messages) of one reader on one file."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = reader(path, "view")
        except dataio.ParseError as exc:
            got = str(exc)
    return got, [str(w.message) for w in caught]


@settings(max_examples=200, deadline=None)
@given(text=tsv_texts())
@example(text="")
@example(text="u\ti\x1c1\nu\ti\x1c1\n")  # file iteration: 2 lines; splitlines: 4
@example(text="\ufeffu\ti\r\n\r\nu\ti\ufeff\n")
def test_columnar_reader_equals_the_line_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("tsv") / "view.tsv"
    path.write_bytes(text.encode("utf-8"))
    got, got_warned = _read(dataio.load_interactions, str(path))
    want, want_warned = _read(_reference_load, str(path))
    assert got_warned == want_warned
    if isinstance(want, str):
        assert got == want  # the same ParseError: the same line, with its number
        return
    users, items = got
    assert len(users) == len(items)
    assert set(zip(users, items)) == want


@SETTINGS
@given(texts=st.lists(tsv_texts(malformed=False), min_size=2, max_size=4))
def test_build_dataset_equals_the_pair_build_of_the_line_reader(tmp_path_factory, texts):
    workdir = tmp_path_factory.mktemp("tsv")
    spec = dataio.BehaviorSpec(tuple(f"b{k}" for k in range(len(texts))))
    files = {}
    for name, text in zip(spec.names, texts):
        files[name] = str(workdir / f"{name}.tsv")
        (workdir / f"{name}.tsv").write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # empty files
        pairs = [_reference_load(files[name], name) for name in spec.names]
        if not pairs[-1]:
            with pytest.raises(dataio.InputError, match="target behavior file is empty"):
                dataio.build_dataset(files, spec)
            return
        got = dataio.build_dataset(files, spec)
    want = dataio.build_dataset_from_pairs(pairs, spec)
    assert got.user_ids == want.user_ids and got.item_ids == want.item_ids
    for g, w in zip(got.matrices, want.matrices):
        _assert_same_csr(g, w)


@SETTINGS
@given(edge_sets())
def test_chain_codes_and_adjacencies_match_set_references(case):
    m, n, edges = case
    ds = _dataset(m, n, edges)
    union = set().union(*edges)
    codes = ds.chain_code_matrix
    assert _entries(codes) == sorted(union)
    assert codes.data.tolist() == [sum(1 << k for k, e in enumerate(edges) if p in e)
                                   for p in sorted(union)]
    for u in range(m):
        for i in range(n):
            assert reasoning.observe_chain(ds, u, i) == tuple(int((u, i) in e) for e in edges)
    model = training.CnreModel(ds, training.TrainConfig(embedding_dim=2, hyperedges=2))
    for adj, e in zip(model.adjacencies + [model.unified_adj], edges + [union]):
        want = _reference_adjacency(e, m, n)
        _assert_same_csr(adj, want)


@SETTINGS
@given(edge_sets(), st.data(), st.integers(1, 4), st.integers(0, 2**16))
def test_item_side_view_product_equals_materialized_transpose_bit_for_bit(case, data, d, seed):
    m, n, edges = case
    empty_users = data.draw(st.sets(st.integers(0, m - 1)))
    empty_items = data.draw(st.sets(st.integers(0, n - 1)))
    pairs = np.array(sorted((u, i) for u, i in edges[0]
                            if u not in empty_users and i not in empty_items),
                     dtype=np.int64).reshape(-1, 2)
    adj = propagation.build_normalized_adjacency(
        dataio.edge_matrix(pairs[:, 0], pairs[:, 1], m, n))
    x = np.random.default_rng(seed).normal(size=(m, d))
    got = adj.T @ x
    assert got.shape == (n, d)
    assert got.tobytes() == (adj.T.tocsr() @ x).tobytes()


def _reference_split(target, seed):
    rng = np.random.default_rng(seed)
    by_user = {}
    for u, i in sorted(target):
        by_user.setdefault(u, []).append(i)
    held = {}
    for u in sorted(by_user):
        if len(by_user[u]) >= 2:
            held[u] = by_user[u][rng.integers(len(by_user[u]))]
    return held, target - set(held.items())


@SETTINGS
@given(edge_sets(), st.integers(0, 2**16))
def test_split_holds_out_the_reference_items(case, seed):
    m, n, edges = case
    split = dataio.leave_one_out_split(_dataset(m, n, edges), seed)
    held, train_target = _reference_split(edges[-1], seed)
    assert split.test_positives == held
    assert list(split.test_positives) == sorted(held)
    assert list(split.train.per_behavior_edges) == edges[:-1] + [train_target]


def _reference_drop(edges, m, user_fraction, drop_fraction, seed):
    """Per affected user, drop a uniform subset of its (behavior, item-ascending) events."""
    rng = np.random.default_rng(seed)
    affected = sorted(set(map(int, rng.choice(m, size=int(round(user_fraction * m)),
                                              replace=False))))
    out = [set(e) for e in edges]
    warned = []
    for u in affected:
        events = [(b, i) for b, e in enumerate(edges) for uu, i in sorted(e) if uu == u]
        n_drop = int(round(drop_fraction * len(events)))
        if n_drop == 0:
            continue
        for k in rng.choice(len(events), size=n_drop, replace=False):
            b, i = events[k]
            out[b].discard((u, i))
        if not any(uu == u for e in out for uu, _ in e):
            warned.append(f"user {u} has no interactions left after drop")
    return out, warned


@SETTINGS
@given(edge_sets(), st.sampled_from([0.25, 0.5, 1.0]), st.sampled_from([0.3, 0.5, 1.0]),
       st.integers(0, 2**16))
def test_drop_history_matches_reference(case, user_fraction, drop_fraction, seed):
    m, n, edges = case
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = dataio.drop_history(_dataset(m, n, edges), user_fraction, drop_fraction, seed)
    want, warned = _reference_drop(edges, m, user_fraction, drop_fraction, seed)
    assert list(out.per_behavior_edges) == want
    assert [str(w.message) for w in caught] == warned


@SETTINGS
@given(edge_sets())
def test_groups_and_conversion_order_match_set_references(case):
    m, n, edges = case
    ds = _dataset(m, n, edges)
    n_groups = dataio.SPARSITY_GROUPS
    if m >= n_groups:
        counts = np.zeros(m, dtype=np.int64)
        for e in edges:
            for u, _ in e:
                counts[u] += 1
        order = np.argsort(counts, kind="stable")
        assert dataio.group_users_by_sparsity(ds) == [
            list(map(int, chunk)) for chunk in np.array_split(order, n_groups)]
    rates = [(len(e & edges[-1]) / len(e) if e else -1.0, k)
             for k, e in enumerate(edges[:-1])]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = dataio.compute_conversion_order(ds)
    assert got == [f"b{k}" for _, k in sorted(rates)] + [f"b{len(edges) - 1}"]


@SETTINGS
@given(edge_sets(), st.integers(0, 200), st.integers(0, 2**16))
def test_sampled_triples_are_edges_with_unobserved_negatives(case, count, seed):
    m, n, edges = case
    ds = _dataset(m, n, edges)
    for b, e in enumerate(edges):
        owned = [{i for uu, i in e if uu == u} for u in range(m)]
        eligible = {(u, i) for u, i in e if len(owned[u]) < n}
        if not eligible:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            triples = dataio.sample_bpr_triples(ds, b, count, np.random.default_rng(seed))
        assert triples.shape == (count, 3) and triples.dtype == np.int64
        for u, pos, neg in triples.tolist():
            assert (u, pos) in eligible and neg not in owned[u] and 0 <= neg < n


@SETTINGS
@given(datasets())
def test_chain_codes_and_table_match_scalar_dispatch(ds):
    n_b = len(ds.spec)
    users, items = np.divmod(np.arange(ds.num_users * ds.num_items), ds.num_items)
    codes = ds.chain_codes(users, items)
    paths, behaviors = reasoning.dispatch_table(n_b)
    for u, i, code in zip(users.tolist(), items.tolist(), codes.tolist()):
        flags = reasoning.observe_chain(ds, u, i)
        assert reasoning.flag_table(n_b)[code] == flags
        assert sum(f << k for k, f in enumerate(flags)) == code
        path = reasoning.dispatch(flags)
        assert reasoning.PATHS[paths[code]] is path
        if path in (P.MEDIUM, P.WEAK):
            assert behaviors[code] == reasoning.chain_behavior(flags)
        else:  # strong reads the target behavior, default the first
            assert behaviors[code] == (n_b - 1 if path is P.STRONG else 0)


@SETTINGS
@given(edge_sets(), st.data())
def test_chain_code_lookup_matches_observe_chain(case, data):
    """Batched codes equal the scalar observation, with behaviors emptied and any batch."""
    m, n, edges = case
    emptied = data.draw(st.sets(st.integers(0, len(edges) - 1)))
    ds = _dataset(m, n, [set() if k in emptied else e for k, e in enumerate(edges)])
    pairs = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                               max_size=3 * m * n))
    users = np.array([u for u, _ in pairs], dtype=np.int64)
    items = np.array([i for _, i in pairs], dtype=np.int64)
    codes = ds.chain_codes(users, items)
    assert codes.dtype == np.int64 and codes.shape == (len(pairs),)
    flags = reasoning.flag_table(len(edges))
    assert [flags[c] for c in codes.tolist()] == [
        reasoning.observe_chain(ds, u, i) for u, i in pairs]
    assert ds.chain_codes([], []).shape == (0,)
    # an id out of range raises, wherever it sits in the batch
    bad_u = data.draw(st.one_of(st.integers(-3, -1), st.integers(m, m + 3)))
    bad_i = data.draw(st.one_of(st.integers(-3, -1), st.integers(n, n + 3)))
    at = data.draw(st.integers(0, len(pairs)))
    for u, i in ((bad_u, 0), (0, bad_i)):
        with pytest.raises(IndexError):
            ds.chain_codes(np.insert(users, at, u), np.insert(items, at, i))


@SETTINGS
@given(ds=datasets(), data=st.data())
def test_pooled_rows_equal_one_batch_pooling_product(ds, data):
    """A filled pooled row is the one-batch product's row bit for bit, however it was filled."""
    cfg = training.TrainConfig(embedding_dim=data.draw(st.integers(1, 5)), hyperedges=2,
                               epochs=0, seed=data.draw(st.integers(0, 2**16)))
    model = training.CnreModel(ds, cfg)
    cascade = model.cascade()
    indices = model.build_indices(cascade)
    b, key = data.draw(st.sampled_from(sorted(k for k in indices if k != "gate")))
    kind = reasoning.index_keys(len(ds.spec))[(b, key)]  # the operator that reads the index
    n_c = data.draw(st.integers(1, 4))
    index = indices[(b, key)]
    n = ds.num_items
    tables = reasoning.ItemTables(cascade)
    op = reasoning.OPERATORS[kind]
    w1 = cascade.params[f"{op.prefix}_w1"].data
    pool_table = getattr(cascade.per_behavior[b], op.item_space).data @ w1[2 * cfg.embedding_dim:]
    hoods = retrieval.neighbors(index, range(n), n_c)
    want = reasoning._pooling_matrix(hoods, n, pool_table.dtype) @ pool_table
    # batches in any order, with repeats; the last one covers every item
    batches = data.draw(st.lists(st.lists(st.integers(0, n - 1), max_size=2 * n), max_size=4))
    batches.append(data.draw(st.permutations(range(n))))
    for batch in batches:
        its = np.array(batch, dtype=np.int64)
        rows = tables.pooled_rows(kind, b, index, n_c)
        np.testing.assert_array_equal(rows[its], want[its])
    np.testing.assert_array_equal(rows, want)


def _trace_fields(t):
    return (t.flags, t.path, t.behavior, t.confidence, t.neighbor_ids, t.space)


def _reference_trace(u, i, ds, gate, cascade, indices, tau, n_c, code=None,
                     disable_rea=False, disable_cnj=False, disable_dsj=False):
    """The dispatch rule for one pair, written with the scalar functions only.

    The chain is observed unless code gives it. Confidence reads the gate
    arrays; retrieval queries the index with the cascade's row of item i,
    which the index was built from.
    """
    flags = (reasoning.observe_chain(ds, u, i) if code is None
             else tuple(code >> k & 1 for k in range(len(ds.spec))))
    path = P.DEFAULT if disable_rea else reasoning.dispatch(flags)
    t = reasoning.ReasoningTrace(flags=flags, path=path, threshold=tau,
                                 behavior=len(ds.spec) - 1 if path is P.STRONG else 0)
    if path in (P.MEDIUM, P.WEAK):
        t.behavior = b = reasoning.chain_behavior(flags)
        g, bundle = gate[b], cascade.per_behavior[b]
        kind = None
        if path is P.MEDIUM and not disable_cnj:
            t.confidence = confidence_score(g["e_u"][u], g["e_i"][i])
            if t.confidence < tau:
                kind, t.space = reasoning._CONJ, "collaborative"
        elif path is P.WEAK and not disable_dsj:
            kind, t.space = reasoning._DISJ, "semantic"
        if kind is not None:  # the operator's index and item space, as build_indices keys them
            op = reasoning.OPERATORS[kind]
            t.neighbor_ids = retrieval.query(indices[(b, op.index_key)],
                                             getattr(bundle, op.item_space).data[i],
                                             n_c, exclude_id=i)
    return t


@settings(max_examples=100, deadline=None)
@given(ds=datasets(), data=st.data())
def test_mixed_batch_equals_per_pair_reason(ds, data):
    ablation = data.draw(st.sampled_from(
        [{}, {"disable_rea": True}, {"disable_cnj": True}, {"disable_dsj": True}]))
    cfg = training.TrainConfig(embedding_dim=4, hyperedges=2, epochs=0, n_c=3,
                               seed=data.draw(st.integers(0, 3)), **ablation)
    model = training.CnreModel(ds, cfg)
    cascade = model.cascade()
    indices = model.build_indices(cascade)
    tau = data.draw(st.sampled_from([0.3, 0.5, 0.7]))
    n_pairs = ds.num_users * ds.num_items
    # every pair of the dataset in a drawn order, then some repeats
    pairs = data.draw(st.permutations(range(n_pairs))) + data.draw(
        st.lists(st.integers(0, n_pairs - 1), max_size=10))
    users, items = np.divmod(np.array(pairs), ds.num_items)
    n = len(pairs)
    # observed chains, one code for the batch, or one code per pair
    code = st.integers(0, (1 << len(ds.spec)) - 1)
    codes = data.draw(st.one_of(st.none(), code,
                                st.lists(code, min_size=n, max_size=n).map(np.array)))
    pair_codes = [None] * n if codes is None else np.broadcast_to(codes, (n,)).tolist()
    kw = dict(n_c=cfg.n_c, **ablation)
    # the gate the indices hold must read the cascade they were built from
    gate_arrays = [{"e_u": b.e_u.data, "e_i": b.e_i.data} for b in cascade.per_behavior]

    logits, traces = reasoning.reason_batch(users, items, ds, cascade, indices, tau,
                                            codes=codes, **kw)
    logits = logits.data[:, 0]
    assert len(traces) == n and len(list(traces)) == n
    assert not any(isinstance(v, tg.Tensor) for v in vars(traces).values())
    for p in range(n):
        u, i = int(users[p]), int(items[p])
        logit1, traces1 = reasoning.reason_batch([u], [i], ds, cascade, indices, tau,
                                                 codes=pair_codes[p], **kw)
        assert abs(logits[p] - logit1.data[0, 0]) <= 1e-12
        assert _trace_fields(traces[p]) == _trace_fields(traces1[0])
        want = _reference_trace(u, i, ds, gate_arrays, cascade, indices, tau, cfg.n_c,
                                code=pair_codes[p], **ablation)
        assert _trace_fields(traces[p]) == _trace_fields(want)
        np.testing.assert_allclose(traces[p].mediator, traces1[0].mediator, rtol=0, atol=1e-12)
        # a copy: a caller may write into it
        bundle = cascade.per_behavior[traces[p].behavior]
        assert not any(np.shares_memory(traces[p].mediator, a)
                       for a in (bundle.e_u.data, bundle.e_i.data))


@SETTINGS
@given(seed=st.integers(0, 2**16), n_rows=st.integers(1, 40), n_c=st.integers(1, 6))
def test_memoized_query_matches_uncached(seed, n_rows, n_c):
    rng = np.random.default_rng(seed)
    space = rng.normal(size=(n_rows, 3))
    memo = retrieval.build_index(space)
    items = rng.integers(n_rows, size=6)
    # the repeats of each (item, n_c) key are answered from the memo
    for k in (n_c, n_c + 1, n_c, n_c + 1):
        fresh = retrieval.build_index(space)
        want = [retrieval.query(fresh, space[i], k, exclude_id=i) for i in items.tolist()]
        got = retrieval.neighbors(memo, items, k)
        assert got.dtype == np.int64 and got.tolist() == want


def _outputs_and_grads(op, arrays, seed):
    """op's outputs on fresh leaves, and each leaf's grad of sum_k <w_k, out_k> (w_k random)."""
    leaves = [tg.Tensor(a, requires_grad=True) for a in arrays]
    outs = op(*leaves)
    outs = outs if isinstance(outs, tuple) else (outs,)
    rng = np.random.default_rng(seed)
    loss = tg.Tensor(np.array(0.0))
    for o in outs:
        loss = tg.add(loss, tg.sum_all(tg.mul(o, tg.Tensor(rng.normal(size=o.shape)))))
    datas = [o.data.copy() for o in outs]
    loss.backward()  # a leaf that no output reads gets no grad: zero
    return datas + [np.zeros_like(t.data) if t.grad is None else t.grad for t in leaves]


def _assert_fused_matches_unfused(fused, reference, arrays, seed):
    """Every output and every input's grad within 1e-12 of the tape's.

    The error is relative to the largest value among the op's outputs and
    grads: a grad that cancels to zero up to rounding (the normalized
    hypergraph is invariant to H's scale, so with one row its H grad is 0)
    is compared at the scale of the terms that cancel.
    """
    got = _outputs_and_grads(fused, arrays, seed)
    want = _outputs_and_grads(reference, arrays, seed)
    assert [a.shape for a in got] == [b.shape for b in want]
    scale = max(np.max(np.abs(a), initial=0.0) for a in got + want)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-12 * scale


@SETTINGS
@given(edge_sets(), st.booleans(), st.integers(0, 3), st.integers(1, 4), st.integers(0, 2**16))
def test_fused_lightgcn_matches_unfused_tape(case, isolate, layers, d, seed):
    m, n, edges = case
    if isolate:  # the last user and the last item lose every edge
        edges[0] = {(u, i) for u, i in edges[0] if u != m - 1 and i != n - 1}
    pairs = np.array(sorted(edges[0]), dtype=np.int64).reshape(-1, 2)
    adj = propagation.build_normalized_adjacency(
        dataio.edge_matrix(pairs[:, 0], pairs[:, 1], m, n))
    rng = np.random.default_rng(seed)
    _assert_fused_matches_unfused(
        lambda u, i: propagation.lightgcn_propagate(adj, u, i, layers),
        lambda u, i: unfused.lightgcn_propagate(adj, u, i, layers),
        [rng.normal(size=(m, d)), rng.normal(size=(n, d))], seed)


@SETTINGS
@given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 4), st.integers(0, 2**16))
def test_fused_hypergraph_convolve_matches_unfused_tape(rows, k, d, seed):
    rng = np.random.default_rng(seed)  # k > rows in about half the cases
    _assert_fused_matches_unfused(
        propagation.hypergraph_convolve, unfused.hypergraph_convolve,
        [rng.normal(size=(rows, k)), rng.normal(size=(rows, d))], seed)


@SETTINGS
@given(st.integers(1, 6), st.integers(1, 4), st.booleans(), st.integers(0, 2**16))
def test_fused_projection_and_aggregation_match_unfused_tape(rows, d, zero_row, seed):
    rng = np.random.default_rng(seed)
    e_col = rng.normal(size=(rows, d))
    if zero_row:  # only the eps guard keeps this row's coefficient finite
        e_col[0] = 0.0
    _assert_fused_matches_unfused(propagation.adaptive_project, unfused.adaptive_project,
                                  [e_col, rng.normal(size=(rows, d))], seed)
    _assert_fused_matches_unfused(propagation.aggregate_behavior, unfused.aggregate_behavior,
                                  [e_col, *rng.normal(size=(2, rows, d))], seed)


@SETTINGS
@given(st.integers(1, 6), st.integers(1, 3), st.data(), st.integers(0, 2**16))
def test_index_rows_backward_equals_add_at_bit_for_bit(rows, d, data, seed):
    idx = data.draw(st.lists(st.integers(0, rows - 1), max_size=20))
    rng = np.random.default_rng(seed)
    a = tg.Tensor(rng.normal(size=(rows, d)), requires_grad=True)
    g = rng.normal(size=(len(idx), d))
    tg.sum_all(tg.mul(unfused.index_rows(a, idx), tg.Tensor(g))).backward()  # index_rows gets g
    want = np.zeros((rows, d))
    np.add.at(want, np.asarray(idx, dtype=np.int64), g)
    assert a.grad.tobytes() == want.tobytes()


def _masked_sigmoid(x):
    """The sigmoid by boolean masks: each sign's branch on its own elements."""
    pos = x >= 0
    z = np.empty_like(x)
    z[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    z[~pos] = e / (1.0 + e)
    return z


def _float_arrays(dtype):
    bits = np.finfo(dtype).bits
    elements = (st.floats(width=bits) | st.floats(-40.0, 40.0, width=bits)
                | st.sampled_from([800.0, -800.0]))
    return hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=2, max_side=8),
                      elements=elements)


def _special_floats(dtype):
    tiny = np.finfo(dtype).smallest_subnormal
    return np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, tiny, -tiny], dtype=dtype)


@SETTINGS
@given(st.sampled_from([np.float32, np.float64]).flatmap(_float_arrays))
@example(_special_floats(np.float32))
@example(_special_floats(np.float64))
def test_sigmoid_equals_the_masked_form_bit_for_bit(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no overflow, no invalid value
        got = tg._sigmoid(x)
    want = _masked_sigmoid(x)
    assert got.dtype == x.dtype and got.shape == x.shape
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    uint = np.uint32 if x.dtype == np.float32 else np.uint64
    keep = ~np.isnan(want)
    assert np.array_equal(got[keep].view(uint), want[keep].view(uint))


HEAD_SLOTS = ("head_wh", "head_bh", "head_wo", "head_bo")
SLOTS = tuple(f"{p}_{k}" for p in ("conj", "disj") for k in ("w1", "b1", "w2", "b2")) + HEAD_SLOTS
SPACES = ("e_u", "e_i", "e_col_i", "e_sem_i")


class _Params(dict):
    """Parameter tensors by slot name, read as the reasoner reads a ParameterStore."""

    version = 0


def _leaf_cascade(leaves, n_b, params=None):
    """A cascade whose bundles hold the given tensors, SPACES per behavior, and params."""
    return SimpleNamespace(memo={}, params=params, per_behavior=[
        SimpleNamespace(**dict(zip(SPACES, leaves[4 * b:4 * b + 4]))) for b in range(n_b)])


def _leaf_arrays(rng, m, n, n_b, d):
    """Random arrays for every cascade space of n_b behaviors, then every slot."""
    spaces = [rng.normal(size=(m if name == "e_u" else n, d))
              for _ in range(n_b) for name in SPACES]
    h = 2 * d
    slots = [rng.normal(size=s) for _ in ("conj", "disj")
             for s in ((3 * d, h), (1, h), (h, 2 * d), (1, 2 * d))]
    slots += [rng.normal(size=s) for s in ((2 * d, d), (1, d), (d, 1), (1, 1))]
    return spaces + slots


@SETTINGS
@given(st.integers(1, 4),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4), st.integers(0, 4)),
                min_size=1, max_size=8),
       st.booleans(), st.integers(0, 2**16))
@example(d=1, triples=[(2, 1, 3)], shared=False, seed=0)  # a single pair
@example(d=1, triples=[(0, 1, 1), (0, 1, 2), (3, 1, 1)], shared=True, seed=1)
def test_fused_auxiliary_head_matches_op_by_op_head(d, triples, shared, seed):
    """concat_scores against strong_mediator of two gathers, then predict_logit.

    With ``shared``, each triple's user scores its positive and its
    negative in one call, as batch_loss scores an auxiliary task.
    """
    users, pos, neg = np.array(triples, dtype=np.int64).T
    items = pos
    if shared:
        users, items = np.concatenate([users, users]), np.concatenate([pos, neg])

    def fused(e_u, e_i, *head):
        cascade = _leaf_cascade([e_u, e_i, e_i, e_i], 1, _Params(zip(HEAD_SLOTS, head)))
        return reasoning.concat_scores(users, items, 0, cascade)

    def reference(e_u, e_i, *head):
        med = unfused.strong_mediator(unfused.index_rows(e_u, users),
                                      unfused.index_rows(e_i, items))
        return training.predict_logit(med, dict(zip(HEAD_SLOTS, head)))
    rng = np.random.default_rng(seed)
    shapes = [(4, d), (5, d), (2 * d, d), (1, d), (d, 1), (1, 1)]
    _assert_fused_matches_unfused(fused, reference, [rng.normal(size=s) for s in shapes],
                                  seed)


ABLATIONS = [{}, {"disable_rea": True}, {"disable_cnj": True}, {"disable_dsj": True}]


def _check_reasoner_against_reference(ds, d, n_c, tau, ablation, codes, gated, triples,
                                      seed):
    """reason_batch on the tape against unfused.reason_batch: logits and every grad.

    The batch scores each triple's positive and negative for its user, as
    batch_loss scores the target task. Every cascade space and slot is a
    random leaf. The indices' gate reads the cascade's e_u and e_i, or when
    gated, other random arrays.
    """
    n_b = len(ds.spec)
    rng = np.random.default_rng(seed)
    arrays = _leaf_arrays(rng, ds.num_users, ds.num_items, n_b, d)
    gate = (reasoning.GateSnapshot([{"e_u": rng.normal(size=(ds.num_users, d)),
                                     "e_i": rng.normal(size=(ds.num_items, d))}
                                    for _ in range(n_b)]) if gated else
            reasoning.GateSnapshot.from_cascade(_leaf_cascade(
                [tg.Tensor(a) for a in arrays], n_b)))
    indices = {(b, key): retrieval.build_index(
        arrays[4 * b + SPACES.index(reasoning.OPERATORS[kind].item_space)])
        for (b, key), kind in reasoning.index_keys(n_b).items()}
    indices["gate"] = gate
    users, pos, neg = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    users, items = np.concatenate([users, users]), np.concatenate([pos, neg])
    kw = dict(n_c=n_c, codes=codes, **ablation)

    def fused(*leaves):
        cascade = _leaf_cascade(leaves, n_b, _Params(zip(SLOTS, leaves[4 * n_b:])))
        return reasoning.reason_batch(users, items, ds, cascade, indices, tau, **kw)[0]

    def reference(*leaves):
        params = dict(zip(SLOTS, leaves[4 * n_b:]))
        return unfused.reason_batch(users, items, ds, _leaf_cascade(leaves, n_b), indices,
                                    params, tau, **kw)[0]
    _assert_fused_matches_unfused(fused, reference, arrays, seed)


@settings(max_examples=100, deadline=None)
@given(ds=datasets(), data=st.data())
def test_reasoner_on_the_tape_matches_unfused_reasoner_and_grads(ds, data):
    n_pairs = 2 * len(ds.spec)  # room for every operator on every behavior
    triple = st.tuples(st.integers(0, ds.num_users - 1), st.integers(0, ds.num_items - 1),
                       st.integers(0, ds.num_items - 1))
    triples = data.draw(st.lists(triple, max_size=n_pairs))
    triples += data.draw(st.lists(st.sampled_from(triples), max_size=3)) if triples else []
    code = st.integers(0, (1 << len(ds.spec)) - 1)
    codes = data.draw(st.one_of(st.none(), code, st.lists(
        code, min_size=2 * len(triples), max_size=2 * len(triples)).map(np.array)))
    _check_reasoner_against_reference(
        ds, data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)),
        data.draw(st.sampled_from([0.0, 0.5, 1.0])), data.draw(st.sampled_from(ABLATIONS)),
        codes, data.draw(st.booleans()), triples, data.draw(st.integers(0, 2**16)))


@pytest.mark.parametrize("triples", [
    [],                                            # an empty batch
    [(0, 1, 2), (0, 1, 2), (1, 2, 1), (0, 2, 0)],  # repeated pairs, shared users
])
@pytest.mark.parametrize("codes", [None, 0b011, [0, 1, 2, 3, 4, 5, 6, 7]])
def test_reasoner_on_the_tape_matches_unfused_reasoner_at_width_one(triples, codes):
    ds = _dataset(3, 4, [{(0, 1), (1, 2), (2, 0)}, {(0, 1), (1, 1)}, {(0, 2)}])
    if isinstance(codes, list):
        codes = np.array(codes[:2 * len(triples)])
    for tau in (0.0, 0.5, 1.0):
        for ablation in ABLATIONS:
            _check_reasoner_against_reference(ds, 1, 2, tau, ablation, codes, False,
                                              triples, 7)


def _assert_close_to_scale(got, want):
    """Within 1e-12 of want, relative to the largest magnitude in want."""
    scale = np.max(np.abs(want), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale


def _scored_model(ds, data):
    """A model on ds, with drawn width, n_c, seed and ablation, and non-zero biases."""
    ablation = data.draw(st.sampled_from(ABLATIONS))
    cfg = training.TrainConfig(embedding_dim=data.draw(st.integers(1, 5)), hyperedges=2,
                               epochs=0, n_c=data.draw(st.integers(1, 4)),
                               seed=data.draw(st.integers(0, 2**16)), **ablation)
    model = training.CnreModel(ds, cfg)
    rng = np.random.default_rng(cfg.seed)  # biases start at 0: give them values to check
    model.store.load_arrays({name: rng.normal(size=model.store[name].shape) for name in (
        "conj_b1", "conj_b2", "disj_b1", "disj_b2", "head_bh", "head_bo")})
    return model, ablation


def _drawn_batch(ds, data):
    """(users, items, codes): drawn pairs with repeats, and observed or drawn codes."""
    n_pairs = ds.num_users * ds.num_items
    pairs = data.draw(st.lists(st.integers(0, n_pairs - 1), min_size=1, max_size=40))
    users, items = np.divmod(np.array(pairs), ds.num_items)
    code = st.integers(0, (1 << len(ds.spec)) - 1)
    codes = data.draw(st.one_of(st.none(), code, st.lists(
        code, min_size=len(pairs), max_size=len(pairs)).map(np.array)))
    return users, items, codes


@settings(max_examples=100, deadline=None)
@given(ds=datasets(), data=st.data())
def test_scorer_matches_tape_reasoner_and_head(ds, data):
    """reason_batch with no tape against the op-by-op reasoner and predict_logit."""
    model, ablation = _scored_model(ds, data)
    cascade = model.cascade()
    indices = model.build_indices(cascade)
    tau = data.draw(st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]))
    users, items, codes = _drawn_batch(ds, data)
    kw = dict(n_c=model.config.n_c, codes=codes, **ablation)

    want_logits, med = unfused.reason_batch(users, items, ds, cascade, indices, model.store,
                                            tau, **kw)
    want_logits = want_logits.data[:, 0]
    logits, got = reasoning.reason_batch(users, items, ds, cascade, indices, tau, **kw)
    logits = logits.data[:, 0]
    _assert_close_to_scale(logits, want_logits)
    np.testing.assert_array_equal(np.lexsort((items, -logits)),
                                  np.lexsort((items, -want_logits)))
    for p in range(len(users)):
        if got[p].space is None:  # a concatenation: the same rows, bit for bit
            np.testing.assert_array_equal(got[p].mediator, med.data[p])
        else:
            _assert_close_to_scale(got[p].mediator, med.data[p])


@settings(max_examples=100, deadline=None)
@given(ds=datasets(), data=st.data())
def test_tape_and_no_tape_logits_are_the_same_bits(ds, data):
    """A cascade over the store records a tape and a bare cascade does not; on the same
    indices both score the same bits, traces and mediators included."""
    model, ablation = _scored_model(ds, data)
    cascade = model.cascade(params=model.store)
    indices = model.build_indices(cascade)
    tau = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    users, items, codes = _drawn_batch(ds, data)
    kw = dict(n_c=model.config.n_c, codes=codes, **ablation)
    taped, taped_traces = reasoning.reason_batch(users, items, ds, cascade, indices, tau,
                                                 **kw)
    plain, traces = reasoning.reason_batch(users, items, ds, model.cascade(), indices, tau,
                                           **kw)
    assert taped.requires_grad and not plain.requires_grad and plain._inputs == ()
    assert taped.data.shape == plain.data.shape == (len(users), 1)
    assert taped.data.tobytes() == plain.data.tobytes()
    for p in range(len(users)):
        assert _trace_fields(taped_traces[p]) == _trace_fields(traces[p])
        assert taped_traces[p].mediator.tobytes() == traces[p].mediator.tobytes()
