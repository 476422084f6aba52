"""The three workloads: what one op is, how its inputs are made, how it is checked.

Each workload runs as a closed loop with one client: the next op starts when
the previous one has returned.  Inputs are a pool of whole rounds made from
the seed during set-up; a run walks the pool in order and starts over when
it reaches the end, so a run longer than one pass repeats inputs in the same
order.  Ops call the library through module attributes, so a traced run sees
them through the tracer's wrappers.
"""
from __future__ import annotations

import io
import random
import sys
from dataclasses import dataclass
from typing import Callable, List

import checks
import gen
from sl2rat import cli, extension, k0, rep


@dataclass(frozen=True)
class Workload:
    name: str
    pool_rounds: int  # rounds generated during set-up; a run attempts whole rounds
    trace_rounds: int  # rounds a traced run times untraced, then traced
    setup: Callable[[int, str, int], List[list]]  # (seed, repository root, rounds) -> rounds
    op: Callable[[object], object]
    check: Callable[[object, object], List[str]]


# -- devissage_ext ---------------------------------------------------------------------


def _ext_setup(seed: int, root: str, rounds: int) -> List[list]:
    rng = random.Random(seed)
    return [gen.ext_round(rng) for _ in range(rounds)]


def _ext_op(case):
    W = extension.ext_build(case.datum)
    cls, tree = k0.devissage(W)
    left, _ = k0.devissage(case.datum.left)
    right, _ = k0.devissage(case.datum.right)
    return W, cls, tree, left, right


# -- casimir_corpus --------------------------------------------------------------------


def _corpus_setup(seed: int, root: str, rounds: int) -> List[list]:
    rng = random.Random(seed)
    return [gen.corpus_round(rng) for _ in range(rounds)]


def _corpus_op(module):
    validated = rep.validate(module)
    mp = rep.casimir_minpoly(module)
    comps = rep.level_decompose(module)
    filts = [rep.canonical_filtration(c) for c in comps]
    return validated, mp, comps, filts


# -- rank1_cli -------------------------------------------------------------------------


GOLDENS_PER_ROUND = 3  # tests/data documents in each round, next to 22 generated requests


def _cli_setup(seed: int, root: str, rounds: int) -> List[list]:
    """Generated requests, plus GOLDENS_PER_ROUND tests/data documents per round.

    The documents are taken in a seeded order, one after another, so 14
    rounds or more hold every one of them.
    """
    rng = random.Random(seed)
    goldens = gen.golden_requests(root)
    rng.shuffle(goldens)
    out = []
    for r in range(rounds):
        requests = gen.cli_round(rng)
        requests += [goldens[(r * GOLDENS_PER_ROUND + j) % len(goldens)] for j in range(GOLDENS_PER_ROUND)]
        rng.shuffle(requests)
        out.append(requests)
    return out


def _cli_op(req):
    """`sl2rat.cli.execute` in-process, the document on stdin, stdout captured.

    The CLI exits through SystemExit when argparse rejects the argv or the
    input cannot be read; that is an exit code like any other, so the op
    returns it and the check decides.
    """
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(req.doc), io.StringIO()
    try:
        try:
            code = cli.execute(list(req.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = stdin, stdout


DEVISSAGE = Workload("devissage_ext", 20, 4, _ext_setup, _ext_op, checks.check_devissage)
CORPUS = Workload("casimir_corpus", 12, 3, _corpus_setup, _corpus_op, checks.check_casimir)
CLI = Workload("rank1_cli", 14, 5, _cli_setup, _cli_op, checks.check_cli)

WORKLOADS = {w.name: w for w in (DEVISSAGE, CORPUS, CLI)}
