"""Correctness checks of the explain-request benchmark.

Every check runs after the timed phase and marks the ops it covers as
failed:

* (a) the placed program prints the same OUT as the original program on
  the trace input, checked through :class:`Interpreter`;
* (b) ``simulate_direct_vectorized`` and ``simulate_direct`` agree on
  2 KB miss counts, and every attribution in an op's output has
  compulsory + capacity + conflict == misses;
* (c) a seeded sample of warm outputs is byte-identical to the same
  request run with ``use_cache=False``;
* (d) every served result equals the in-process warm output for the
  same request;
* (e) warm and served ops report zero interpreter instructions.

:func:`program_checks` also yields the two placement-quality metrics,
``miss_ratio_2k`` and ``code_kb``, from the same replay.
"""

from __future__ import annotations

import hashlib
import re

from streams import BASE_GEOMETRY, SCALE

_ACCESS_LINE = re.compile(r"^accesses (\d+), misses (\d+) ")
_THREE_C_LINE = re.compile(
    r"^3C: compulsory (\d+) .*capacity (\d+) .*conflict (\d+) "
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def attribution_sums_ok(output: str) -> bool:
    """(b) Each ``[layout]`` block's 3C counts add up to its misses."""
    lines = output.splitlines()
    blocks = 0
    for index, line in enumerate(lines):
        access = _ACCESS_LINE.match(line)
        if access is None:
            continue
        three_c = _THREE_C_LINE.match(lines[index + 1]) \
            if index + 1 < len(lines) else None
        if three_c is None:
            return False
        if sum(int(part) for part in three_c.groups()) != int(access[2]):
            return False
        blocks += 1
    return blocks == 2


def program_checks(store_dir: str, names) -> tuple[set[str], dict]:
    """(a) and (b) for each workload name, replayed from the store.

    Returns ``(failed names, {"miss_ratio_2k": mean, "code_kb": mean})``
    with the optimized-layout 2 KB / 64 B direct-mapped miss ratio and
    image size averaged over ``names``.
    """
    from repro.cache.direct import simulate_direct
    from repro.cache.vectorized import simulate_direct_vectorized
    from repro.engine.store import ArtifactStore
    from repro.experiments.runner import MAX_TRACE_INSTRUCTIONS, \
        ExperimentRunner
    from repro.interp.interpreter import Interpreter

    cache_bytes, block_bytes, _assoc = BASE_GEOMETRY
    failed: set[str] = set()
    ratios, sizes = [], []
    for name in names:
        runner = ExperimentRunner(scale=SCALE, store=ArtifactStore(store_dir))
        art = runner.artifacts(name)
        trace_input = art.workload.trace_input(SCALE)
        placed = Interpreter(art.program).run(
            trace_input, max_instructions=MAX_TRACE_INSTRUCTIONS)
        original = Interpreter(art.original_program).run(
            trace_input, max_instructions=MAX_TRACE_INSTRUCTIONS)
        addresses = runner.addresses(name, "optimized")
        fast = simulate_direct_vectorized(addresses, cache_bytes, block_bytes)
        slow = simulate_direct(addresses, cache_bytes, block_bytes)
        if (placed.output != original.output
                or (fast.accesses, fast.misses)
                != (slow.accesses, slow.misses)):
            failed.add(name)
        ratios.append(fast.misses / fast.accesses)
        sizes.append(art.image.total_bytes / 1024)
    return failed, {
        "miss_ratio_2k": sum(ratios) / len(ratios),
        "code_kb": sum(sizes) / len(sizes),
    }
