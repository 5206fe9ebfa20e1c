"""Seeded requests for the three workloads, one round (or session) at a time.

Cold sizes are drawn by stratified sampling: a round takes one value from
each of k equal slices of a size range, then shuffles the round. The seed
picks the values and their order, while every round spans the whole range,
so runs with different seeds see the same mix of cheap and costly requests.
Cost grows steeply with size, so the slices are narrow where a request is
costly and a round weights the command families so that one round fills
about one run. Sessions come in pairs that split the sizes of their range
between them, and the seed sets the split and the order of calls, which
is what decides how much one request can reuse from another.
"""
from __future__ import annotations

import dataclasses
import random

FORMATS = ("pretty", "json", "csv")
BUILD_RANGE, BUILD_STRATA = (16, 64), 12
# (command, low, high, strata) per round of the check workload
CHECK_MIX = (
    ("verify", 8, 24, 5),
    ("eta", 16, 40, 8),
    ("conjecture", 16, 64, 22),
    ("coeffs-all", 8, 24, 10),
)
SESSION_FUNCTIONS = (
    "combination_matrix",
    "eta_via_coeff_row",
    "scan_sign_pattern",
    "compare_stirling2_matrix",
)
SESSION_RANGE, SESSION_REPEATS = (0, 64), 2


@dataclasses.dataclass(frozen=True)
class Request:
    """A CLI command (cold workloads) or a library function (session) at size n."""

    command: str
    n: int
    fmt: str = "pretty"

    def argv(self) -> list[str]:
        n = str(self.n)
        if self.command == "coeffs":
            return ["coeffs", "--m", n, "--format", self.fmt]
        if self.command == "coeffs-all":
            return ["coeffs", "--check-all-routes", "--m", n]
        if self.command == "verify":
            return ["verify", "--m", n]
        return [self.command, "--max", n]


def stratified(rng: random.Random, low: int, high: int, k: int) -> list[int]:
    """One value from each of k contiguous, nearly equal slices of low..high."""
    size = high - low + 1
    edges = [low + size * s // k for s in range(k + 1)]
    return [rng.randint(edges[s], edges[s + 1] - 1) for s in range(k)]


def _build_round(rng: random.Random) -> list[Request]:
    sizes = stratified(rng, *BUILD_RANGE, BUILD_STRATA)
    formats = (rng.sample(FORMATS, len(FORMATS)) * len(sizes))[: len(sizes)]
    rng.shuffle(formats)
    return [Request("coeffs", m, fmt) for m, fmt in zip(sizes, formats)]


def _check_round(rng: random.Random) -> list[Request]:
    return [
        Request(command, n)
        for command, low, high, k in CHECK_MIX
        for n in stratified(rng, low, high, k)
    ]


def cold_round(workload: str, rng: random.Random) -> list[Request]:
    """One shuffled round of the `build` or `check` workload."""
    requests = {"build": _build_round, "check": _check_round}[workload](rng)
    rng.shuffle(requests)
    return requests


def session_pair(rng: random.Random) -> tuple[list[Request], list[Request]]:
    """Two warm sessions that between them visit every m of the range once.

    Of each two neighbouring sizes the seed gives one to each session, so
    both span the whole range; drawing sizes freely would let the median
    swing with the draw at small m, where one size costs several times its
    neighbour. Within a session each m gets every public function twice,
    in random order, and its first call is `combination_matrix`, as a
    caller builds a matrix before reading it: the builds are the cache
    misses, and the mix does not swing with which function happened to miss.
    """
    low, high = SESSION_RANGE
    sizes: tuple[list[int], list[int]] = ([], [])
    # pairs count down from the top, so both sessions get one of the two
    # costliest builds and an odd size left over is the cheapest
    for top in range(high, low - 1, -2):
        sides = [0, 1]
        rng.shuffle(sides)
        for side, m in zip(sides, range(top, max(top - 2, low - 1), -1)):
            sizes[side].append(m)
    return _session(rng, sizes[0]), _session(rng, sizes[1])


def _session(rng: random.Random, sizes: list[int]) -> list[Request]:
    requests = [
        Request(function, m)
        for m in sizes
        for function in SESSION_FUNCTIONS
        for _ in range(SESSION_REPEATS)
    ]
    rng.shuffle(requests)
    first: dict[int, int] = {}
    for index, request in enumerate(requests):
        first.setdefault(request.n, index)
    for m, index in first.items():
        build = requests.index(Request(SESSION_FUNCTIONS[0], m))
        requests[index], requests[build] = requests[build], requests[index]
    return requests


def reuse_share(requests: list[Request]) -> float:
    """Share of requests whose matrix is a prefix of one an earlier request built."""
    largest, reused = -1, 0
    for request in requests:
        reused += request.n <= largest
        largest = max(largest, request.n)
    return reused / len(requests)
