#!/usr/bin/env python3
"""Seeded single-operator mutation run over modules of the package.

    python3 tools/mutants.py src/isingexact/pfaffian.py src/isingexact/spectral.py \\
        --seed 1 --count 40
    python3 tools/mutants.py src/isingexact/spectral.py --list

Run from the root of a checkout.  A site is one operator of the modules
given: + <-> - and * <-> / (binary and augmented), < <-> <= and > <-> >=.
The run draws --count sites with --seed (every site by default) and, for
each, copies the checkout to a temporary directory, swaps that one operator
in the copy and runs `python -m pytest -x -q` there under
OPENBLAS_NUM_THREADS=1, since at two threads a busy host slows each BLAS
call many times over.  A mutant is killed when the tests fail, fail to
collect or pass TIMEOUT_S.

KNOWN_EQUIVALENT lists mutants that change no value, each with its reason;
they are reported but not scored, so the score reads killed /
non-equivalent.  Not part of tier-1: a surviving mutant costs a whole test
run (~40 s on 2 vCPUs).
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from dataclasses import dataclass
from pathlib import Path

SWAPS = {"+": "-", "-": "+", "*": "/", "/": "*", "+=": "-=", "-=": "+=", "*=": "/=",
         "/=": "*=", "<": "<=", "<=": "<", ">": ">=", ">=": ">"}
_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
_COMPARE = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}
TIMEOUT_S = 900   # per mutant: a loop whose step a mutant reversed never ends

# (module, line, mutated line, why no test can kill it); the lines are
# stripped of their indentation.  Some are swaps outside SWAPS, found by hand.
# "Equivalent" here means no value moves past rounding.
KNOWN_EQUIVALENT = [
    ("oracle.py",
     "if bound < _TINY and np.any((products < _TINY) & (weight > 0.0) & (state[inc] > 0.0)):",
     "if bound <= _TINY and np.any((products < _TINY) & (weight > 0.0) & (state[inc] > 0.0)):",
     "at bound == _TINY every nonzero product is >= _TINY, so the check finds nothing"),
    ("oracle.py", "for depth in range(2, n + 1):", "for depth in range(2, n - 1):",
     "the planner's search depth: no plan changed on 386 tori, grids, cylinders and "
     "chains of 18-26 sites"),
    ("transfer2d.py",
     "block = block + 1j * im[q].reshape(size, size)[np.ix_(keep, keep)]",
     "block = block - 1j * im[q].reshape(size, size)[np.ix_(keep, keep)]",
     "the conjugate Hermitian block has the same eigenvalues"),
    ("pfaffian.py", "if sign == 0 or rest == 0:", "if sign == 0 or rest <= 1:",
     "rest is always even"),
    ("pfaffian.py", "if m > n:", "if m >= n:",
     "a square grid transposes onto itself; values move by rounding only "
     "(<= 2.5e-16 relative on Ising tori, <= 1.2e-13 on dimer counts to 24 x 24)"),
    ("pfaffian.py", "if m % 2 or (m > n and n % 2 == 0):",
     "if m % 2 or (m >= n and n % 2 == 0):",
     "a square torus transposes onto itself; values move by rounding only"),
    ("pfaffian.py", "if c == 2 * _BLOCK:", "if c >= 2 * _BLOCK - 2:",
     "an earlier flush of the same pending updates"),
    ("pfaffian.py", "if c and k < n:", "if c and k <= n:",
     "at k == n the pending update's slice is empty"),
    ("pfaffian.py", "sign *= 1 if piv > 0 else -1", "sign /= 1 if piv > 0 else -1",
     "dividing by +-1 is multiplying by it"),
    ("pfaffian.py", "sign *= 1 if piv > 0 else -1", "sign *= 1 if piv >= 0 else -1",
     "the pivot is nonzero: a column at or below 1e-12 * scale has returned"),
    ("pfaffian.py", "sign *= flip", "sign /= flip", "flip is +-1"),
    ("pfaffian.py", "sign *= step_sign", "sign /= step_sign",
     "a step's sign is +-1 where it is used: a singular step has returned"),
    ("pfaffian.py", "sign, log_mag = flip ** (n - 1), 0.0", "sign, log_mag = flip ** (n + 1), 0.0",
     "n - 1 and n + 1 have the same parity"),
    ("pfaffian.py",
     "return w.z1 * (h - h.T), w.z2 * np.diag((-1.0) ** (np.arange(m) + 1))",
     "return w.z1 * (h - h.T), w.z2 * np.diag((-1.0) ** (np.arange(m) - 1))",
     "(-1)^(i - 1) = (-1)^(i + 1)"),
]


@dataclass(frozen=True)
class Site:
    path: Path
    line: int    # 1-based
    col: int     # 0-based, in characters
    old: str
    new: str

    def lines(self, source: str) -> tuple[str, str]:
        """The site's line as it is and as the mutant has it."""
        text = source.split("\n")[self.line - 1]
        return text, text[:self.col] + self.new + text[self.col + len(self.old):]

    def mutate(self, source: str) -> str:
        lines = source.split("\n")
        lines[self.line - 1] = self.lines(source)[1]
        return "\n".join(lines)


def _operator_token(tokens, op: str, after, before):
    """The first OP token `op` between the positions after and before."""
    for tok in tokens:
        if tok.type == tokenize.OP and tok.string == op and after <= tok.start \
                and tok.end <= before:
            return tok
    raise ValueError(f"no {op!r} between {after} and {before}")


def _start(node) -> tuple[int, int]:
    return node.lineno, node.col_offset


def _end(node) -> tuple[int, int]:
    return node.end_lineno, node.end_col_offset


def sites(path: Path) -> list[Site]:
    """Every site of the module, in source order.  AST offsets are in bytes
    of UTF-8 and tokenize columns in characters; the modules are ASCII."""
    source = path.read_text()
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    tree = ast.parse(source)
    # operators inside an f-string's braces only shape an error message
    quoted = {id(inner) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
              for inner in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if id(node) in quoted:
            continue
        spans = []   # (operator, position after which it starts, position before which it ends)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            spans.append((_BINARY[type(node.op)], _end(node.left), _start(node.right)))
        elif isinstance(node, ast.AugAssign) and type(node.op) in _BINARY:
            spans.append((_BINARY[type(node.op)] + "=", _end(node.target), _start(node.value)))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            spans += [(_COMPARE[type(op)], _end(a), _start(b))
                      for op, a, b in zip(node.ops, operands, operands[1:])
                      if type(op) in _COMPARE]
        for op, after, before in spans:
            tok = _operator_token(tokens, op, after, before)
            found.append(Site(path, tok.start[0], tok.start[1], op, SWAPS[op]))
    return sorted(found, key=lambda s: (s.line, s.col))


def known_reason(site: Site, source: str) -> str | None:
    text, mutated = (line.strip() for line in site.lines(source))
    for module, line, mutant, reason in KNOWN_EQUIVALENT:
        if (site.path.name, text, mutated) == (module, line, mutant):
            return reason
    return None


def run_mutant(root: Path, site: Site, source: str) -> tuple[str, float]:
    """('killed' | 'survived' | 'timeout', seconds) of the mutant's test run
    on a temporary copy of the checkout."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        (copy / site.path).write_text(site.mutate(source))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=str(copy / "src"))
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                                   "-p", "no:cacheprovider"], cwd=copy, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - t0
        return ("survived" if proc.returncode == 0 else "killed"), time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", type=Path,
                        help="module paths relative to the checkout's root")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, help="sites to draw (default: all)")
    parser.add_argument("--list", action="store_true", help="list the sites and exit")
    args = parser.parse_args(argv)
    sources = {path: path.read_text() for path in args.modules}
    every = [site for path in args.modules for site in sites(path)]
    if args.list:
        for i, site in enumerate(every):
            text, mutated = site.lines(sources[site.path])
            print(f"{i:4d} {site.path}:{site.line}  {text.strip()}  ->  {mutated.strip()}")
        print(f"{len(every)} sites")
        return 0
    drawn = every if args.count is None else random.Random(args.seed).sample(
        every, min(args.count, len(every)))
    print(f"seed {args.seed}: {len(drawn)} of {len(every)} sites in "
          f"{', '.join(str(p) for p in args.modules)}", flush=True)
    killed, survivors, equivalent = 0, [], []
    for site in drawn:
        source = sources[site.path]
        text, mutated = site.lines(source)
        where = f"{site.path}:{site.line}  {text.strip()}  ->  {mutated.strip()}"
        reason = known_reason(site, source)
        if reason is not None:
            equivalent.append(where)
            print(f"equivalent  {where}  ({reason})", flush=True)
            continue
        verdict, seconds = run_mutant(Path.cwd(), site, source)
        if verdict == "survived":
            survivors.append(where)
        else:
            killed += 1
        print(f"{verdict:<10}  {where}  [{seconds:.1f} s]", flush=True)
    scored = len(drawn) - len(equivalent)
    print(f"score: {killed} killed / {scored} non-equivalent "
          f"({len(equivalent)} known-equivalent not scored)")
    for where in survivors:
        print(f"survivor    {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
