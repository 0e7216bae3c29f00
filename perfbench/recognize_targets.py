"""Recognise seeded rational combinations of library constants, in one fresh
process per call, the way ``demos/03`` drives ``recognize``.

    python3 perfbench/recognize_targets.py TARGETS_JSON

TARGETS_JSON is a list of ``{"basis": [names], "q": q, "a": [a_i], "bits": b}``.
Each target value ``sum(a_i * constant_i) / q`` is built from closed forms
evaluated with mpmath directly, not through the library's constant engine,
and handed to ``padic_rama.expansion.recognize``.  Prints one JSON list with
``[q, a]`` (or null) per target.
"""

from __future__ import annotations

import json
import sys

from mpmath import mp

from padic_rama import expansion
from padic_rama.constants import Lquad, PiPower, Zeta

HEIGHT_BOUND = 10**6

# name -> (library tag, closed form evaluated at the ambient precision)
CONSTANTS = {
    "Zeta(2)": (Zeta(2), lambda: mp.pi**2 / 6),
    "Zeta(3)": (Zeta(3), lambda: +mp.apery),
    "PiPower(2)": (PiPower(2), lambda: 1 / mp.pi**2),
    "Lquad(5,2)": (Lquad(5, 2), lambda: 4 * mp.pi**2 / (25 * mp.sqrt(5))),
    "Lquad(-4,1)": (Lquad(-4, 1), lambda: mp.pi / 4),
}


def main(argv: list[str]) -> int:
    results = []
    for target in json.loads(argv[0]):
        bits = target["bits"]
        basis = [CONSTANTS[name] for name in target["basis"]]
        with mp.workprec(bits + 64):
            value = sum(a * closed() for a, (_, closed) in zip(target["a"], basis))
            value /= target["q"]
        hit = expansion.recognize(value, [tag for tag, _ in basis], HEIGHT_BOUND, bits)
        results.append(None if hit is None else [hit[0], list(hit[1])])
    sys.stdout.write(json.dumps(results) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
