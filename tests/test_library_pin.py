"""The library's exact outputs, pinned digest by digest.

``library_pin.json`` holds:

* ``instances``: rows ``[n, edges, digests]``.  The first ``box`` rows are
  every instance of ``iter_edge_antichains(n, 4)`` for n = 1..5, in stream
  order; the rest are seeded larger instances (3- and 4-uniform, linear,
  mixed edge sizes, isolated vertices, the empty instance).
* ``functions``: the names in ``PINNED``.  A row's ``digests`` holds one
  digest per name, in that order, of the canonical JSON of the call's
  answer, or of ``"!Type: message"`` when it refuses.
* ``raw``: the answers themselves for a small slice of rows, so that a
  failure there names what changed.
* ``streams``: per call of ``iter_edge_antichains`` and ``iter_r_uniform``
  on a small grid, the count and a digest of every instance it yields, or
  the refusal and whether the call or the iteration raised it.

Each row's eta, k, list assignment and filters are drawn from
``random.Random(row index)``.  To re-record, run
``PYTHONPATH=src python tests/test_library_pin.py`` on a tree whose
outputs are trusted; a change that moves an output on purpose re-records
the file and names the rows that moved.
"""

import hashlib
import json
import random
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import pytest

from hyperchrom import (
    Hypergraph,
    ListAssignment,
    chromatic_polynomial,
    count_L_colorings,
    count_L_colorings_expansion,
    list_color_function_exact,
    nb_subsets,
    prop1_rhs,
    scan_assignments_one_extra_color,
    theorem_certify,
)
from hyperchrom.generators import (
    iter_edge_antichains,
    iter_r_uniform,
    random_antichain,
    random_linear_r_uniform,
)

FIXTURE = Path(__file__).resolve().with_name("library_pin.json")


def _inputs(index: int, H: Hypergraph) -> SimpleNamespace:
    rng = random.Random(index)
    eta = rng.sample(range(1, H.m + 1), H.m)
    k = rng.randint(1, 3)
    lists = {v: rng.sample(range(1, k + 3), k) for v in range(1, H.n + 1)}
    avoid = rng.sample(range(1, H.m + 1), rng.randint(0, H.m))
    label = rng.randint(1, H.m) if H.m else None
    return SimpleNamespace(
        eta=eta, k=k, L=ListAssignment(k, lists), avoid=avoid, label=label, size=rng.randint(0, H.m)
    )


def _outcome(call, *args, **kwargs):
    """The call's answer, or ``"!Type: message"`` when it raises."""
    try:
        return call(*args, **kwargs)
    except Exception as exc:  # every refusal is part of the pinned output
        return f"!{type(exc).__name__}: {exc}"


def _masks(stream) -> list[int]:
    return [A.mask for A in stream]


def _plk(H, k):
    value, witness = list_color_function_exact(H, k)
    return [value, json.loads(witness.to_json())]


# name -> (H, seeded inputs) -> a JSON-able answer
PINNED = {
    "chromatic": lambda H, s: chromatic_polynomial(H).to_pairs(),
    "chromatic_eta": lambda H, s: chromatic_polynomial(H, s.eta).to_pairs(),
    "nb": lambda H, s: _masks(nb_subsets(H, s.eta)),
    "nb_avoid": lambda H, s: _masks(nb_subsets(H, s.eta, avoid=s.avoid)),
    "nb_filtered": lambda H, s: _masks(nb_subsets(H, s.eta, must_contain=s.label, size=s.size)),
    "count_L": lambda H, s: count_L_colorings(H, s.L),
    "count_L_expansion": lambda H, s: count_L_colorings_expansion(H, s.L, s.eta),
    "prop1": lambda H, s: prop1_rhs(H, s.L, s.eta),
    "plk_exact": lambda H, s: [_outcome(_plk, H, k) for k in (1, 2)],
    "scan": lambda H, s: [
        _outcome(scan_assignments_one_extra_color, H, k, gap_factor=0.001) for k in (1, 2)
    ],
    "certify": lambda H, s: [
        _outcome(lambda w: asdict(theorem_certify(H, s.k, w)), which) for which in (1, 2, 3)
    ],
}


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=repr)


def _digest(text: str, width: int = 8) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:width]


def _answer(name: str, index: int, H: Hypergraph):
    return _outcome(PINNED[name], H, _inputs(index, H))


def _stream(call, *args) -> str:
    """"count digest" over the instances a generator call yields, or its refusal,
    marked by whether the call or the iteration raised it."""
    try:
        stream = call(*args)
    except Exception as exc:
        return f"!call {type(exc).__name__}: {exc}"
    text = hashlib.sha256()
    count = 0
    try:
        for H in stream:
            text.update(_canonical([H.n, H.edges]).encode())
            count += 1
    except Exception as exc:
        return f"!iter {type(exc).__name__}: {exc}"
    return f"{count} {text.hexdigest()[:16]}"


def _stream_calls():
    """(key, generator, arguments) for every pinned stream."""
    for n in range(-1, 7):
        for m_max in range(-1, 6 if n <= 5 else 3):
            yield f"iter_edge_antichains({n}, {m_max})", iter_edge_antichains, (n, m_max)
    for n in range(0, 8):
        for r in range(1, 5):
            for m in range(-1, 5 if n <= 6 else 4):
                for linear in (False, True):
                    yield f"iter_r_uniform({n}, {r}, {m}, {linear})", iter_r_uniform, (n, r, m, linear)


def _random_uniform(rng, n, r, m):
    edges = []
    for _ in range(4 * m):
        e = sorted(rng.sample(range(1, n + 1), r))
        if e not in edges:
            edges.append(e)
    return edges[:m]


def _larger_instances() -> list[Hypergraph]:
    """About 100 seeded instances past the box, recorded with their edges."""
    rng = random.Random(31)
    out = [Hypergraph(0, []), Hypergraph(1, []), Hypergraph(7, [])]
    for _ in range(30):  # r-uniform, some with isolated vertices
        r, iso = rng.choice((3, 4)), rng.choice((0, 0, 1, 2))
        n = rng.randint(6, 9 - iso)
        out.append(Hypergraph(n + iso, _random_uniform(rng, n, r, rng.randint(2, 12))))
    for _ in range(30):  # mixed edge sizes, some with isolated vertices
        iso = rng.choice((0, 1, 2))
        n = rng.randint(6, 9 - iso)
        out.append(Hypergraph(n + iso, random_antichain(n, rng.randint(2, 10), rng).edges))
    for _ in range(20):  # linear, where Theorems 1-3 can apply
        r = rng.choice((3, 4))
        n, m = (rng.randint(7, 9), rng.randint(2, 5)) if r == 3 else (9, rng.randint(2, 3))
        out.append(random_linear_r_uniform(n, m, r, rng.randint(0, 999)))
    for _ in range(17):
        out.append(random_antichain(rng.randint(4, 7), rng.randint(1, 4), rng))
    return out


PIN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else None
ROWS = PIN["instances"] if PIN else []


def _hypergraph(row) -> Hypergraph:
    return Hypergraph(row[0], row[1])


@pytest.fixture(autouse=True)
def _default_caps(monkeypatch):
    monkeypatch.delenv("HYPERCHROM_BUDGET", raising=False)


def test_pin_covers_every_function():
    assert PIN["functions"] == list(PINNED)
    assert len(ROWS) > PIN["box"] + 90
    assert all(len(row[2].split()) == len(PINNED) for row in ROWS)


def test_box_is_the_antichain_stream():
    box = [[H.n, [list(e) for e in H.edges]] for n in range(1, 6) for H in iter_edge_antichains(n, 4)]
    assert len(box) == PIN["box"] == 3006
    assert box == [row[:2] for row in ROWS[: PIN["box"]]]


def test_streams():
    got = {key: _stream(call, *args) for key, call, args in _stream_calls()}
    assert got.keys() == PIN["streams"].keys()
    moved = [f"{key}: {PIN['streams'][key]} -> {got[key]}" for key in got if got[key] != PIN["streams"][key]]
    assert not moved, "\n".join(moved[:10])


@pytest.mark.parametrize("name", list(PINNED))
def test_pinned(name):
    column = list(PINNED).index(name)
    moved = []
    for index, row in enumerate(ROWS):
        H = _hypergraph(row)
        answer = _answer(name, index, H)
        if _digest(_canonical(answer)) != row[2].split()[column]:
            raw = PIN["raw"].get(str(index), {})
            was = f" (was {_canonical(raw[name])})" if name in raw else ""
            moved.append(f"row {index} {H!r}: {_canonical(answer)[:200]}{was}")
    assert not moved, f"{len(moved)} rows moved:\n" + "\n".join(moved[:5])


def _record() -> dict:
    instances = [H for n in range(1, 6) for H in iter_edge_antichains(n, 4)]
    box = len(instances)
    instances += _larger_instances()
    rows, raw = [], {}
    for index, H in enumerate(instances):
        answers = {name: _answer(name, index, H) for name in PINNED}
        digests = " ".join(_digest(_canonical(answers[name])) for name in PINNED)
        rows.append([H.n, [list(e) for e in H.edges], digests])
        if index % 300 == 0 or box <= index < box + 8:
            raw[str(index)] = json.loads(_canonical(answers))
    streams = {key: _stream(call, *args) for key, call, args in _stream_calls()}
    return {"box": box, "functions": list(PINNED), "instances": rows, "raw": raw, "streams": streams}


def _write(pin: dict) -> None:
    compact = lambda value: json.dumps(value, separators=(",", ":"))  # noqa: E731
    rows = ",\n".join(compact(row) for row in pin["instances"])
    raw = ",\n".join(f"{compact(key)}:{compact(value)}" for key, value in pin["raw"].items())
    streams = ",\n".join(f"{compact(key)}:{compact(value)}" for key, value in pin["streams"].items())
    FIXTURE.write_text(
        f'{{"box":{pin["box"]},\n"functions":{compact(pin["functions"])},\n'
        f'"instances":[\n{rows}\n],\n"raw":{{\n{raw}\n}},\n"streams":{{\n{streams}\n}}}}\n'
    )


if __name__ == "__main__":
    import os

    os.environ.pop("HYPERCHROM_BUDGET", None)
    _write(_record())
