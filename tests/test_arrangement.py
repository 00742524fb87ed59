import json
import random
from collections import Counter
from functools import cache
from itertools import combinations

import pytest

from hypertoric import catalog
from hypertoric.arrangement import (
    build_torus_data,
    classify,
    enumerate_circuits,
    root_hyperplanes,
    vertices,
)
from hypertoric.errors import (
    DimensionMismatch,
    NonGenericStability,
    RankDeficient,
)


def supports_1based(circuits):
    return {tuple(i + 1 for i in c.support) for c in circuits}


def test_build_validates():
    with pytest.raises(RankDeficient):
        build_torus_data([[1, 2], [2, 4]], [0, 0])
    with pytest.raises(DimensionMismatch):
        build_torus_data([[1, 0]], [0, 0, 0])
    # non-surjective full-rank data builds by default, classifies non-unimodular
    td = build_torus_data([[2]], [0])
    assert not td.surjective
    assert classify(td)["unimodular"] is False


def test_kernel_conventions():
    td = catalog.t_star_p(1)
    assert td.iota == ((1,), (1,))
    td = catalog.a_tilde(1)
    assert td.iota == ((1,), (-1,))


def test_t_star_p1_circuit():
    td = catalog.t_star_p(1)
    cs = enumerate_circuits(td)
    assert len(cs) == 1
    c = cs[0]
    assert c.support == (0, 1)
    assert c.beta == (1, 1)
    assert c.plus == (0, 1) and c.minus == ()
    assert c.beta_k == (1,)


def test_a_tilde_1_circuit():
    td = catalog.a_tilde(1)
    cs = enumerate_circuits(td)
    assert len(cs) == 1
    c = cs[0]
    assert c.beta == (1, -1)
    assert c.plus == (0,) and c.minus == (1,)


def test_wall_detection():
    # beta = (1,1) for a = (1,-1), so theta_hat = (1,-1) pairs to zero
    td = build_torus_data([[1, -1]], [1, -1])
    with pytest.raises(NonGenericStability):
        enumerate_circuits(td)


def test_rank8_d2_circuits():
    td = catalog.rank8_d2()
    cs = enumerate_circuits(td)
    assert supports_1based(cs) == {(1, 2), (3, 4), (1, 3, 5), (1, 4, 5),
                                   (2, 3, 5), (2, 4, 5)}
    # circuits sorted lexicographically by support
    assert [c.support for c in cs] == sorted(c.support for c in cs)
    # splittings pinned (recorded 1-based for readability)
    split = {tuple(i + 1 for i in c.support):
             (tuple(i + 1 for i in c.plus), tuple(i + 1 for i in c.minus))
             for c in cs}
    assert split[(1, 2)] == ((1,), (2,))
    assert split[(3, 4)] == ((3,), (4,))
    assert split[(1, 3, 5)] == ((3,), (1, 5))
    assert split[(1, 4, 5)] == ((1, 5), (4,))
    assert split[(2, 3, 5)] == ((3,), (2, 5))
    assert split[(2, 4, 5)] == ((4,), (2, 5))


def test_classify_instances():
    for name, make in catalog.INSTANCES.items():
        td = make()
        rep = classify(td)
        assert rep["smooth"], name


def test_classify_non_unimodular():
    td = build_torus_data([[1, 2]], [1, 0])
    rep = classify(td)
    assert rep["simple"]
    assert not rep["unimodular"]


def test_classify_non_simple():
    # three concurrent lines in d=2: columns e1, e2, e1+e2 with theta=0
    td = build_torus_data([[1, 0, 1], [0, 1, 1]], [0, 0, 0])
    rep = classify(td)
    assert not rep["simple"]
    # same columns, generic shift: simple
    td2 = build_torus_data([[1, 0, 1], [0, 1, 1]], [0, 0, 1])
    assert classify(td2)["simple"]


def test_vertex_counts():
    assert len(vertices(catalog.t_star_p(1))) == 2
    assert len(vertices(catalog.t_star_p(2))) == 3
    assert len(vertices(catalog.t_star_p(3))) == 4
    assert len(vertices(catalog.a_tilde(1))) == 2
    assert len(vertices(catalog.a_tilde(2))) == 3
    assert len(vertices(catalog.p1_times_p1())) == 4
    assert len(vertices(catalog.rank8_d2())) == 8


def test_unimodular_circuit_entries():
    # unimodular data: every circuit kernel vector has entries in {-1,0,1}
    for make in catalog.INSTANCES.values():
        td = make()
        for c in enumerate_circuits(td):
            assert set(c.beta) <= {-1, 0, 1}


def test_root_hyperplanes():
    for name in ["a_tilde_2", "p1_times_p1", "rank8_d2"]:
        td = catalog.INSTANCES[name]()
        cs = enumerate_circuits(td)
        rh = root_hyperplanes(td)
        assert len(rh) == len(cs)


def test_circuit_determinism():
    rnd = random.Random(5)
    for _ in range(10):
        td = catalog.rank8_d2()
        cs1 = enumerate_circuits(td)
        cs2 = enumerate_circuits(td)
        assert cs1 == cs2


@pytest.mark.parametrize("a", [[[1] * 16], [[1, 0, 1, 1, 2, 0, 1],
                                            [0, 1, 1, -1, 1, 2, 3]]])
def test_circuit_supports_stop_at_d_plus_1(monkeypatch, a):
    # a circuit of a rank-d matroid has at most d + 1 elements: no support
    # of a larger size is enumerated, though n is larger
    import hypertoric.arrangement as arrangement
    td = build_torus_data(a, [10 ** i for i in range(len(a[0]))])
    sizes = set()

    def recording(items, size):
        sizes.add(size)
        return combinations(items, size)

    monkeypatch.setattr(arrangement, "combinations", recording)
    circuits, _, _, _ = arrangement._subsets.__wrapped__(td)
    assert max(sizes) == td.d + 1 < td.n
    assert max(c.size for c in circuits) <= td.d + 1


def test_check_reads_each_column_set_once(monkeypatch, tmp_path, capsys):
    # `check` on rank8_d2, with a fresh memo of the one pass over column
    # sets: exactly one Hermite form of a_S^T per set S of at most d + 1
    # columns, and none of iota^T for a circuit's iota coordinates.  The
    # 33 forms are 2 to build the torus data, 25 in the pass and 6 ranks
    # in root_hyperplanes
    import hypertoric.arrangement as arrangement
    import hypertoric.exact as exact
    from hypertoric.cli import main
    td = catalog.rank8_d2()
    monkeypatch.setattr(arrangement, "_subsets",
                        cache(arrangement._subsets.__wrapped__))
    forms = []

    def recording(M, transform=True, _hnf=exact.hermite_normal_form):
        forms.append(tuple(map(tuple, M)))
        return _hnf(M, transform)

    monkeypatch.setattr(arrangement, "hermite_normal_form", recording)
    monkeypatch.setattr(exact, "hermite_normal_form", recording)
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"a": td.a, "theta_hat": td.theta_hat}))
    assert main(["check", str(path)]) == 0
    capsys.readouterr()
    column_sets = Counter(
        tuple(tuple(row[i] for row in td.a) for i in S)
        for size in range(1, td.d + 2)
        for S in combinations(range(td.n), size))
    in_pass = Counter(M for M in forms if len(M) <= td.d + 1
                      and all(len(row) == td.d for row in M))
    assert in_pass == column_sets
    iota_t = tuple(zip(*td.iota))
    assert not any(M == iota_t or M == tuple(zip(*iota_t)) for M in forms)
    assert len(forms) == 33
