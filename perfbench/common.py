"""Shared pieces of the benchmark: paths, seeded inputs, references, stats.

Everything here runs outside the timed regions.  The program under test
is imported from ``src/`` of the checkout the benchmark runs in; nothing
here imports it at module level, so the harness can fail cleanly (and
without printing a result) when the program is missing.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
#: Everything the benchmark writes lives here (listed in .gitignore).
WORK = ROOT / ".perfbench-work"

#: QUEST T10.I4.D10K: 10k transactions over 1000 items, average basket
#: 10, average potential pattern 4, 2000 potential patterns.
BASE_TRANSACTIONS = 10_000
NUM_ITEMS = 1000
NUM_POTENTIAL_PATTERNS = 2000
AVG_TRANSACTION_LEN = 10
AVG_PATTERN_LEN = 4
#: Seed of the one QUEST draw every run uses.  The benchmark seed permutes
#: that draw's item labels and basket order, so each seed is different
#: data with the same pattern structure: the work per op does not depend
#: on the seed (independent draws moved the rule count by +-8% and the op
#: time with it, on top of host noise).
DRAW_SEED = 1994
#: Pre-written append deltas, each 1/40 of the base (250 transactions);
#: every serve-mixed block appends the first to a fresh server.
NUM_DELTAS = 1
#: Bump when the inputs or their format change, so cached per-seed files
#: are rebuilt.
INPUT_VERSION = 4


def program_available() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts.

    ``TMPDIR`` keeps the program's temporary spill/state directories
    inside the checkout.
    """
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    return env


def start(command: list[str], **kwargs) -> subprocess.Popen:
    """Start a program process in its own process group (see :func:`reap`)."""
    return subprocess.Popen(command, cwd=ROOT, env=child_env(),
                            start_new_session=True, **kwargs)


def reap(process: subprocess.Popen, timeout: float) -> int:
    """Wait for ``process``, then kill whatever is left of its group
    (worker pools it may have orphaned), so no process outlives a run."""
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return -9
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()


def use_program() -> None:
    """Make ``import repro`` resolve to the checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    import tempfile

    tempfile.tempdir = str(tmp)


# -- seeded inputs -----------------------------------------------------------------


def _poisson(rng: random.Random, mean: float) -> int:
    threshold, k, product = math.exp(-mean), 0, rng.random()
    while product > threshold:
        k += 1
        product *= rng.random()
    return k


def _pattern_table(rng: random.Random):
    """QUEST step 1 (Agrawal & Srikant 1994, 4.1): potential patterns with
    exponential weights and clipped-normal corruption levels; half of each
    pattern's items are carried over from the previous one."""
    patterns, weights, corruption = [], [], []
    previous: list[int] = []
    for _ in range(NUM_POTENTIAL_PATTERNS):
        size = _poisson(rng, AVG_PATTERN_LEN - 1) + 1
        items = set(rng.sample(previous, min(len(previous), round(size * 0.5))))
        while len(items) < size:
            items.add(rng.randrange(NUM_ITEMS))
        previous = sorted(items)
        patterns.append(previous)
        weights.append(rng.expovariate(1.0))
        corruption.append(min(1.0, max(0.0, rng.gauss(0.5, 0.1))))
    return patterns, weights, corruption


def quest_transactions(seed: int, count: int) -> list[list]:
    """QUEST step 2: each basket is filled from weighted, corrupted
    potential patterns up to a Poisson size; an overflowing pattern is
    kept in half the cases."""
    rng = random.Random(seed)
    patterns, weights, corruption = _pattern_table(rng)
    indices = range(len(patterns))
    transactions = []
    for tid in range(1, count + 1):
        size = max(1, _poisson(rng, AVG_TRANSACTION_LEN))
        basket: set[int] = set()
        for _ in range(50):
            if len(basket) >= size:
                break
            (index,) = rng.choices(indices, weights=weights)
            kept = list(patterns[index])
            while kept and rng.random() < corruption[index]:
                kept.pop(rng.randrange(len(kept)))
            if not kept:
                continue
            if basket and len(basket) + len(kept) > size:
                if rng.random() < 0.5:
                    basket.update(kept)
                break
            basket.update(kept)
        if not basket:
            basket.add(rng.randrange(NUM_ITEMS))
        transactions.append([tid, sorted(basket)])
    return transactions


def _write_csv(path: Path, transactions) -> None:
    """``trans_id,item`` rows with a header: the SALES relation."""
    with path.open("w", encoding="utf-8") as handle:
        handle.write("trans_id,item\n")
        for tid, items in transactions:
            handle.writelines(f"{tid},{item}\n" for item in items)


def make_inputs(seed: int, base: int = BASE_TRANSACTIONS) -> dict:
    """Write (or reuse) the seed's base CSV and append deltas.

    The fixed draw holds ``base`` transactions plus ``NUM_DELTAS`` deltas
    of ``base // 40``.  The seed relabels its items with a random
    permutation of the item ids and shuffles the base baskets; delta
    trans_ids ascend past the base, as appends require.  The manifest
    also carries the transactions, for the references.
    """
    directory = WORK / f"inputs-v{INPUT_VERSION}-n{base}-seed{seed}"
    manifest_path = directory / "manifest.json"
    if manifest_path.is_file():
        return json.loads(manifest_path.read_text())
    delta = base // 40
    draw_path = WORK / f"draw-v{INPUT_VERSION}-n{base}.json"
    if draw_path.is_file():
        draw = json.loads(draw_path.read_text())
    else:
        draw = quest_transactions(DRAW_SEED, base + NUM_DELTAS * delta)
        WORK.mkdir(parents=True, exist_ok=True)
        tmp = draw_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(draw))
        tmp.replace(draw_path)
    rng = random.Random(seed)
    labels = list(range(NUM_ITEMS))
    rng.shuffle(labels)
    baskets = [sorted(labels[item] for item in items) for _, items in draw]
    head = baskets[:base]
    rng.shuffle(head)
    transactions = [[tid, items]
                    for tid, items in enumerate(head + baskets[base:], start=1)]
    directory.mkdir(parents=True, exist_ok=True)
    _write_csv(directory / "base.csv", transactions[:base])
    deltas = []
    for index in range(NUM_DELTAS):
        path = directory / f"delta{index:02d}.csv"
        start = base + index * delta
        _write_csv(path, transactions[start : start + delta])
        deltas.append(str(path))
    manifest = {
        "seed": seed,
        "base_transactions": base,
        "delta_transactions": delta,
        "base": str(directory / "base.csv"),
        "deltas": deltas,
        "transactions": transactions,
    }
    tmp = manifest_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(manifest))
    tmp.replace(manifest_path)
    return manifest


# -- references --------------------------------------------------------------------


def canonical(patterns, rules) -> dict:
    """Order- and label-type-independent form of a result.

    ``patterns`` is an iterable of ``(items, count)``; ``rules`` of
    ``(antecedent, consequent, support_count, confidence)`` (or None).
    """
    return {
        "patterns": sorted(
            [sorted(map(str, items)), count] for items, count in patterns
        ),
        "rules": None
        if rules is None
        else sorted(
            [sorted(map(str, a)), sorted(map(str, c)), n, repr(conf)]
            for a, c, n, conf in rules
        ),
    }


def canonical_document(document: dict) -> dict:
    """The canonical form of a MINE/serve result document."""
    rules = document.get("rules")
    return canonical(
        ((p["items"], p["count"]) for p in document["result"]["patterns"]),
        None
        if rules is None
        else (
            (r["antecedent"], r["consequent"], r["support_count"], r["confidence"])
            for r in rules
        ),
    )


def corrupted(form: dict) -> dict:
    """``form`` with its first pattern dropped (self-test only)."""
    return {**form, "patterns": form["patterns"][1:]}


def digest(form: dict) -> str:
    return hashlib.sha256(
        json.dumps(form, sort_keys=True).encode("utf-8")
    ).hexdigest()


def reference_result(transactions, support: float):
    """The faithful ``setm`` engine's result, untimed and unmetered."""
    use_program()
    from repro import Miner, MiningConfig
    from repro.core.transactions import TransactionDatabase

    database = TransactionDatabase((tid, tuple(items)) for tid, items in transactions)
    return Miner(database, cache_entries=0).frequent_itemsets(
        MiningConfig(
            support=support,
            algorithm="setm",
            options={"measure_memory": False},
        )
    )


def reference_form(result, confidence: float | None) -> dict:
    use_program()
    from repro.core.rules import generate_rules

    rules = None
    if confidence is not None:
        rules = [
            (r.antecedent, r.consequent, r.support_count, r.confidence)
            for r in generate_rules(result, confidence)
        ]
    return canonical(result.iter_patterns(), rules)


# -- host-speed probe and statistics -----------------------------------------------


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop; recorded, never used to scale."""
    started = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    elapsed = time.perf_counter() - started
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def peak_rss_mb_of(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``), in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
