"""Run one benchmark command in this process with span recorders around the
public functions of each padic-rama layer.

    python3 perfbench/traced.py SPANS_OUT cli ARGS...        # padic-rama ARGS
    python3 perfbench/traced.py SPANS_OUT recognize TARGETS  # recognize_targets.py

Each wrapper is installed on the module attribute the caller looks up at call
time: ``padic_rama.congruence`` imports ``truncated_sum_mod`` by name, so the
sum layer is wrapped as ``padic_rama.congruence.truncated_sum_mod``.  Spans
stay in memory and are written to SPANS_OUT as JSON lines when the command
ends: ``{"name", "start", "end", "parent", ...counters}``, with ``parent`` the
index of the enclosing span.  Standard output and the exit code are those of
the untraced command.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _terms(rec, args, result):
    return {"terms": args[1]}  # truncated_sum_mod(spec, p, m) sums p terms


def _rows(rec, args, result):
    return result.counts


def _modulus_bits(rec, args, result):
    return {"modulus_bits": result.modulus.bit_length()}


def _bernoulli_hit(rec, args, result):
    return rec.seen("bernoulli", args[0])


def _constant_hit(rec, args, result):
    return rec.seen("constant", (args[0], args[1]))


# (module, attribute, span name, counters)
WRAPPERS = [
    ("cli", "resolve_input", "cli.parse", None),
    ("cli", "parse_series", "cli.parse", None),
    ("cli", "parse_template", "cli.parse", None),
    ("cli", "parse_claims", "cli.parse", None),
    ("cli", "admissible_primes", "cli.admissible_primes", None),
    ("cli", "primes_in_range", "exactnum.primes_in_range", None),
    ("cli", "verify_congruence", "congruence.verify_congruence", _rows),
    ("cli", "fit_unknowns", "congruence.fit_unknowns", None),
    ("cli", "scan_next_term", "congruence.scan_next_term", None),
    ("cli", "numeric_sum", "series.numeric_sum", None),
    ("cli", "shifted_expansion", "expansion.shifted_expansion", None),
    ("cli", "verify_expansion", "expansion.verify_expansion", None),
    ("congruence", "truncated_sum_mod", "series.truncated_sum_mod", _terms),
    ("congruence", "template_rhs_mod", "congruence.template_rhs_mod", None),
    ("congruence", "zeta_p_mod_p", "lfunctions.zeta_p_mod_p", None),
    ("congruence", "L_p_mod_p", "lfunctions.L_p_mod_p", None),
    ("congruence", "crt_combine", "exactnum.crt_combine", _modulus_bits),
    ("congruence", "rational_reconstruct", "exactnum.rational_reconstruct", None),
    ("congruence", "verify_congruence", "congruence.verify_congruence", _rows),
    ("congruence", "fit_unknowns", "congruence.fit_unknowns", None),
    ("lfunctions", "bernoulli_all_mod_p", "lfunctions.bernoulli_all_mod_p", _bernoulli_hit),
    ("lfunctions", "zeta_p_mod_p", "lfunctions.zeta_p_mod_p", None),
    ("series", "constant_value", "constants.constant_value", _constant_hit),
    ("expansion", "constant_value", "constants.constant_value", _constant_hit),
    ("expansion", "shifted_expansion", "expansion.shifted_expansion", None),
    ("expansion", "lll_reduce", "lattice.lll_reduce", None),
    ("expansion", "recognize", "expansion.recognize", None),
]


class Recorder:
    """Spans of one process, in the order they started."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._seen: dict[str, set] = {}

    def seen(self, kind: str, key) -> dict:
        """Counter for a cache-like call: was this key seen before in the process?"""
        keys = self._seen.setdefault(kind, set())
        hit = key in keys
        keys.add(key)
        return {"hit": hit}

    def wrap(self, fn, name, counters=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                span.update(counters(self, args, result))
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, name, counters in WRAPPERS:
            mod = importlib.import_module(f"padic_rama.{module}")
            setattr(mod, attr, self.wrap(getattr(mod, attr), name, counters))


def main(argv: list[str]) -> int:
    out_path, program, args = argv[0], argv[1], argv[2:]
    recorder = Recorder()
    recorder.install()
    try:
        if program == "cli":
            from padic_rama import cli

            code = cli.main(args)
        else:
            import recognize_targets

            code = recognize_targets.main(args)
        sys.stdout.flush()
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            for span in recorder.spans:
                fh.write(json.dumps(span) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
