"""One bounded, in-process LRU memo.

Every in-memory memo is an :class:`LRU`: the pipeline's artifacts and
results share the process-wide :data:`MEMO`, and the simulation
service keeps its result documents in an instance of its own.  An
entry lives under ``(kind, key)``; for an artifact the key is the
fingerprint the on-disk artifact cache stores it under
(:func:`repro.exec.cache.fingerprint`).  The bound counts entries:
inserting past it evicts the least recently used entry of any kind,
which is reloaded from disk or rebuilt, bit-identical, on next use.
"""

from __future__ import annotations

from collections import Counter, OrderedDict, defaultdict
from typing import Callable, Dict, Hashable, List, Optional, Sequence

#: Entry bound of :data:`MEMO`.  The largest sweep of the paper's
#: experiments, Figure 19's treelet sizes (``fig19_treelet_sizes``),
#: peaked at 170 entries at default scale and 272 at full scale; the
#: four ``BENCHMARK.json`` workloads peak at 56 (render-cold).
MEMO_CAPACITY = 512

COUNTERS = ("hits", "misses", "evictions", "builds")


class LRU:
    """A bounded mapping from ``(kind, key)`` to a value, with strict
    least-recently-used eviction and per-kind counters.

    One thread at a time may use it; :meth:`info` alone may run on
    another thread (serve's ``/healthz``), as it reads its state
    through copies the interpreter makes in one step.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()
        self._counts: Dict[str, Dict[str, int]] = defaultdict(
            lambda: dict.fromkeys(COUNTERS, 0)
        )

    def __len__(self) -> int:
        return len(self._entries)

    def count(self, counter: str, kind: Optional[str] = None) -> int:
        """One counter of ``kind``, or its sum over every kind."""
        if kind is not None:
            return self._counts.get(kind, {}).get(counter, 0)
        return sum(counts[counter] for counts in self._counts.values())

    def get(self, kind: str, key: Hashable):
        """The value under ``(kind, key)``, or None."""
        value = self._entries.get((kind, key))
        if value is not None:
            self._entries.move_to_end((kind, key))
        self._counts[kind]["misses" if value is None else "hits"] += 1
        return value

    def put(self, kind: str, key: Hashable, value) -> None:
        if self.capacity == 0:
            return
        self._entries[(kind, key)] = value
        self._entries.move_to_end((kind, key))
        while len(self._entries) > self.capacity:
            (evicted, _), _ = self._entries.popitem(last=False)
            self._counts[evicted]["evictions"] += 1

    def get_or_build(self, kind: str, key: Hashable,
                     build: Callable[[], object], disk=None):
        """The value under ``(kind, key)``: from memory, else from
        ``disk``, else from ``build()``, which is then stored to disk.

        ``disk`` has ``load(kind, key)`` (None on a miss) and
        ``store(kind, key, value)``, as :class:`repro.exec.ArtifactCache`
        does.
        """
        return self.get_or_build_all(
            kind, [key], lambda _missing: [build()], disk
        )[0]

    def get_or_build_all(
        self,
        kind: str,
        keys: Sequence[Hashable],
        build: Callable[[List[Hashable]], Sequence[object]],
        disk=None,
    ) -> list:
        """:meth:`get_or_build` for many keys: one ``build`` call gets
        every key missing from both tiers and returns their values in
        order.  The values of ``keys`` come back in order, whatever the
        bound evicts meanwhile."""
        found: Dict[Hashable, object] = {}
        for key in dict.fromkeys(keys):
            value, _ = self.lookup(kind, key, disk)
            if value is not None:
                found[key] = value
        missing = [key for key in dict.fromkeys(keys) if key not in found]
        for key, value in zip(missing, build(missing) if missing else ()):
            self.keep(kind, key, value, disk)
            found[key] = value
        return [found[key] for key in keys]

    def lookup(self, kind: str, key: Hashable, disk=None) -> tuple:
        """``(value, tier)``: the value under ``(kind, key)`` from memory,
        else from ``disk`` (kept in memory), and the tier that answered,
        "memory" or "disk"; ``(None, None)`` on a miss in both."""
        value = self.get(kind, key)
        if value is not None:
            return value, "memory"
        if disk is not None:
            value = disk.load(kind, key)
            if value is not None:
                self.put(kind, key, value)
                return value, "disk"
        return None, None

    def keep(self, kind: str, key: Hashable, value, disk=None) -> None:
        """Count ``value`` as built, store it to ``disk`` and keep it in
        memory: the last step of :meth:`get_or_build`."""
        self._counts[kind]["builds"] += 1
        if disk is not None:
            disk.store(kind, key, value)
        self.put(kind, key, value)

    def clear(self, kind: Optional[str] = None) -> None:
        """Drop every entry, or every entry of ``kind``; counters stay."""
        for entry in [e for e in self._entries if kind in (None, e[0])]:
            del self._entries[entry]

    def reset_counts(self) -> None:
        self._counts.clear()

    def info(self) -> dict:
        """Entries, capacity, and every counter, in total and per kind."""
        counts = {kind: dict(c) for kind, c in list(self._counts.items())}
        entries = Counter(kind for kind, _ in list(self._entries))
        for kind in entries:
            counts.setdefault(kind, dict.fromkeys(COUNTERS, 0))
        totals = {counter: sum(c[counter] for c in counts.values())
                  for counter in COUNTERS}
        lookups = totals["hits"] + totals["misses"]
        return {
            "entries": sum(entries.values()),
            "capacity": self.capacity,
            **totals,
            "hit_rate": totals["hits"] / lookups if lookups else 0.0,
            "kinds": {kind: dict(counts[kind], entries=entries[kind])
                      for kind in sorted(counts)},
        }


#: The process-wide memo of pipeline artifacts and results.
MEMO = LRU(MEMO_CAPACITY)
