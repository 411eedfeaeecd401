"""Quick checks of the benchmark itself.

    python3 -m pytest bench/tests -q

Inputs are reproducible from the seed, every oracle rejects a corrupted
result, and the metrics a run prints are exactly the ones BENCHMARK.json
declares, under names of the allowed alphabet.
"""

from __future__ import annotations

import dataclasses
import io
import json
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import blockmap  # noqa: E402
import constructions  # noqa: E402
import corpus  # noqa: E402
import layers  # noqa: E402
import maps  # noqa: E402
import ref  # noqa: E402
import run  # noqa: E402
from core import Inputs  # noqa: E402

WORKLOADS = ("maps-build", "maps-query", "constructions", "cli")
SETUPS = {"maps-build": maps.setup_build, "maps-query": maps.setup_query,
          "constructions": constructions.setup, "cli": corpus.setup}
L = layers.api()


def describe(ops, inputs) -> bytes:
    """Everything a set-up generated: the ordinals and piece counts it
    noted, and each operation's kind and captured arguments."""
    def captured(fn):
        return list(fn.__defaults__ or ()) + [c.cell_contents for c in fn.__closure__ or ()]
    return repr((inputs.ordinals, inputs.pieces,
                 [(op.kind, op.layer, captured(op.run)) for op in ops])).encode()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    def generate(seed):
        inputs = Inputs()
        return describe(SETUPS[workload](L, seed, inputs), inputs)
    first = generate(7)
    assert generate(7) == first
    assert generate(8) != first


# ---------------------------------------------------------------------------
# oracles reject corrupted results


def _block_swapped(G: blockmap.BlockMap) -> blockmap.BlockMap:
    """G followed by the exchange of blocks 1 and 2."""
    swap = blockmap.BlockMap.identity(G.m)
    swap.sigma[1], swap.sigma[2] = 2, 1
    for b in range(1, blockmap.SMALL + 1):
        swap.low[(1, b)], swap.low[(2, b)] = (2, b), (1, b)
    return swap.compose(G)


def test_map_oracle_rejects_wrong_block_permutation():
    import random

    G = blockmap.blockmap_with_pieces(random.Random(1), 40)
    H = blockmap.blockmap_with_pieces(random.Random(2), 40)
    inputs = Inputs()
    g = L.build(maps._piece_list(L, G.atoms(), inputs))
    h = L.build(maps._piece_list(L, H.atoms(), inputs))
    right = L.compose(g, h)
    assert maps._is_map(G.compose(H))(right)
    assert not maps._is_map(_block_swapped(G).compose(H))(right)
    wrong = L.build(maps._piece_list(L, _block_swapped(G).compose(H).atoms(), inputs))
    assert not maps._is_map(G.compose(H))(wrong)
    p = (3, 1)
    assert maps._is_point(G(p))(L.apply(g, L.parse_ordinal(ref.pair_fmt(p))))
    assert not maps._is_point(G(p))(L.parse_ordinal(ref.pair_fmt((G(p)[0], G(p)[1] + 1))))
    assert maps._is_set(blockmap.fixed_set([G]))(L.fixed_points(g))
    assert not maps._is_set(blockmap.fixed_set([G]))(L.fixed_points(wrong))


def test_fixed_point_oracle_rejects_moved_point():
    import random

    G = blockmap.blockmap_with_pieces(random.Random(3), 40)
    moved = next((k, 0) for k in range(2, G.m + 2) if G((k, 0)) != (k, 0))
    check = maps._is_common_fixed_point_above([G], (0, 1))
    assert not check(L.parse_ordinal(ref.pair_fmt(moved)))
    assert check(L.parse_ordinal("w^2"))
    assert not maps._is_common_fixed_point_above([G], (0, 5))(L.parse_ordinal("3"))


def _ops(kind: str, seeds=range(5, 9)):
    out = []
    for seed in seeds:
        out += [op for op in constructions.setup(L, seed, Inputs()) if op.kind == kind]
    return out


def test_transitivity_oracle_rejects_identity():
    for op in _ops("make_transitive"):
        assert op.check(op.run(L))
        assert not op.check(L.build([]))


def test_roelcke_oracle_rejects_a_changed_middle_factor():
    far = L.swap_points(L.parse_ordinal("1000"), L.parse_ordinal("1001"))
    for op in _ops("roelcke_decompose"):
        cert = op.run(L)
        assert op.check(cert)
        assert not op.check(dataclasses.replace(cert, h=L.compose(far, cert.h)))


def test_dense_oracle_rejects_an_identity_part():
    rejected = 0
    for op in _ops("dense_approx"):
        h, k = op.run(L)
        assert op.check((h, k))
        # an identity h is wrong where g moves a target, an identity k
        # where a family point lies below a target
        for corrupt in ((L.build([]), k), (h, L.build([]))):
            rejected += not op.check(corrupt)
    assert rejected >= 2


def test_baire_oracle_rejects_a_map_fixing_no_integer():
    for op in _ops("baire_density_witness"):
        assert op.check(op.run(L))
        n = op.run.__closure__[0].cell_contents[1]
        runaway = L.build([])
        for k in range(n, n + 8):
            runaway = L.compose(L.swap_points(L.parse_ordinal(str(k)),
                                              L.parse_ordinal(f"w^2 + {k}")), runaway)
        assert not op.check(runaway)


def test_permutation_oracle_rejects_a_dropped_cycle():
    from ordhomeo.sieve import FinitePermutation

    for op in _ops("extend_to_permutation"):
        perm = op.run(L)
        assert op.check(perm)
        assert not op.check(FinitePermutation(perm.cycles[1:]))


def test_chain_oracle_rejects_a_dropped_witness_pair():
    from ordhomeo.sieve import PartialInjection

    for op in _ops("chain_limit"):
        limit, witness = op.run(L)
        assert op.check((limit, witness))
        assert not op.check((limit, PartialInjection(witness.pairs[1:])))


def test_matching_oracle_rejects_wrong_answers():
    ops = _ops("satisfiable.n10") + _ops("satisfiable.n200")
    sat = [op for op in ops if op.run(L) is not None]
    unsat = [op for op in ops if op.run(L) is None]
    assert sat and unsat
    for op in sat:
        assert op.check(op.run(L))
        assert not op.check(None)
        assert not unsat[0].check(op.run(L))
    for op in unsat:
        assert op.check(None)


def test_ordinal_batch_oracle_rejects_one_changed_value():
    op = _ops("ordinal_batch")[0]
    got = op.run(L)
    assert op.check(got)
    assert not op.check(got[:-1] + [got[-1] + " + 1"])


def test_pair_model_matches_nested_model():
    pairs = ref.poly(2, 3), ref.poly(0, 4), ref.poly(5, 0)
    for x in pairs:
        for y in pairs:
            px, py = ref.pair(x), ref.pair(y)
            assert ref.from_pair(ref.pair_add(px, py)) == ref.add(x, y)
            prod = ref.pair_mul(px, py)
            if prod is not None:
                assert ref.from_pair(prod) == ref.mul(x, y)
            if x <= y:
                assert ref.from_pair(ref.pair_sub(px, py)) == ref.left_sub(x, y)


def test_corpus_oracle_rejects_a_flipped_byte():
    ops = corpus.setup(L, 1, Inputs())
    op = next(op for op in ops if op.check(op.run(L)) and op.run(L)[1])
    code, out = op.run(L)
    flipped = bytes([out[0] ^ 1]) + out[1:]
    assert not op.check((code, flipped))
    assert not op.check((code + 1, out))


# ---------------------------------------------------------------------------
# the printed result


def _result(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                         "--trace", str(trace)]) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace", [(w, 1) for w in WORKLOADS] + [("constructions", 0)])
def test_metrics_are_the_declared_ones(workload, trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in result["metrics"]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)


def test_fails_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
