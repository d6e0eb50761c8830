"""Correctness oracle: every result the benchmark receives is hashed and
compared with ``bench/reference.json`` (written by ``python -m bench
reference``) and, for golden-grid cells, with ``tests/golden/
digests.json``.  A mismatch is a failed op; a cell with no reference is
counted as *unchecked*, never passed silently."""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import Dict, List, Optional, Sequence, Tuple

from bench import workloads as W
from bench.common import (GOLDEN_PATH, REFERENCE_PATH, load_json,
                          result_digest)

REFERENCE_SCHEMA = 1

#: Seeds ``bench reference`` covers.  Seed 1 is the held-out seed for
#: performance claims; the others let any small seed be checked fully.
REFERENCE_SEEDS = tuple(range(10))


class Checker:
    """Checks the digests of one run of one workload at one seed."""

    def __init__(self, workload: str, seed: int, smoke: bool = False,
                 reference: Optional[Dict] = None,
                 golden: Optional[Dict] = None) -> None:
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        if reference is None and os.path.exists(REFERENCE_PATH):
            reference = load_json(REFERENCE_PATH)
        self.reference = (reference or {}).get("workloads", {}) \
            .get(workload, {})
        if golden is None and os.path.exists(GOLDEN_PATH):
            golden = load_json(GOLDEN_PATH)
        self.golden = (golden or {}).get("cells", {})
        self.checked = 0
        self.unchecked = 0
        self.mismatches: List[str] = []
        self._seen: Dict[str, str] = {}

    def expected(self, key: str) -> List[Tuple[str, str]]:
        """``(source, digest)`` pairs this cell must match."""
        out = []
        if not self.smoke:
            entry = self.reference.get(key, {})
            want = entry.get(str(self.seed), entry.get("*"))
            if want is not None:
                out.append(("reference", want))
        code = key.split("/")[0]
        on_golden_grid = self.smoke or self.workload == "serve-zipf"
        if on_golden_grid and (self.seed == 0 or code in W.SEED_FREE) \
                and key in self.golden:
            out.append(("golden", self.golden[key]["result_sha256"]))
        return out

    def check(self, key: str, digest: str) -> bool:
        """True when ``digest`` matches every reference that applies and
        every earlier result for the same cell in this run."""
        ok = True
        first = self._seen.setdefault(key, digest)
        if first != digest:
            ok = False
            self.mismatches.append(f"{key}: differs from its earlier "
                                   f"result in this run")
        wanted = self.expected(key)
        if wanted:
            self.checked += 1
        else:
            self.unchecked += 1
        for source, want in wanted:
            if digest != want:
                ok = False
                self.mismatches.append(f"{key}: result_sha256 {digest[:12]} "
                                       f"!= {source} {want[:12]}")
        return ok


# --- generating the reference -------------------------------------------

def _digest_task(code: str, policy: str, threads: int, scale: float,
                 seed: int) -> str:
    from repro.harness.executor import (execute_spec, make_spec,
                                        serialize_result)

    spec = make_spec(code, policy, threads=threads, scale=scale, seed=seed)
    return result_digest(serialize_result(execute_spec(spec)))


def build_reference(seeds: Sequence[int] = REFERENCE_SEEDS,
                    jobs: int = min(2, os.cpu_count() or 1)) -> Dict:
    """Digest every cell of every workload at ``seeds``.

    Seed-free workloads are computed at the first two seeds only, must
    agree there, and are stored once under ``"*"``.  The serve-zipf
    cells at seed 0 must equal the golden corpus.
    """
    seeds = list(seeds)
    tasks = []
    for name in W.WORKLOADS:
        for cell in W.cells(name):
            todo = seeds[:2] if cell.code in W.SEED_FREE else seeds
            for seed in todo:
                tasks.append((name, cell, seed))
    with ProcessPoolExecutor(max_workers=jobs,
                             mp_context=get_context("spawn")) as pool:
        futures = [pool.submit(_digest_task, c.code, c.policy, c.threads,
                               c.scale, seed) for _n, c, seed in tasks]
        digests = [f.result() for f in futures]

    out: Dict[str, Dict[str, Dict[str, str]]] = {}
    for (name, cell, seed), value in zip(tasks, digests):
        out.setdefault(name, {}).setdefault(cell.key, {})[str(seed)] = value
    for name, cells in out.items():
        for key, by_seed in cells.items():
            if key.split("/")[0] in W.SEED_FREE:
                if len(set(by_seed.values())) != 1:
                    raise ValueError(f"{name} {key} depends on the seed; "
                                     f"remove it from SEED_FREE")
                cells[key] = {"*": next(iter(by_seed.values()))}
    golden = load_json(GOLDEN_PATH)["cells"]
    for key, by_seed in out["serve-zipf"].items():
        got = by_seed.get("0", by_seed.get("*"))
        if got != golden[key]["result_sha256"]:
            raise ValueError(f"serve-zipf {key} at seed 0 differs from "
                             f"the golden corpus")
    return {"schema": REFERENCE_SCHEMA, "seeds": seeds,
            "seed_free": sorted(W.SEED_FREE), "workloads": out}


def write_reference(data: Dict, path: str = REFERENCE_PATH) -> None:
    with open(path + ".tmp", "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(path + ".tmp", path)
