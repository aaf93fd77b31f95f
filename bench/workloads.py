"""The three workloads: fixed lists of dercat CLI jobs and their output checks.

Each job is one cold `dercat` process.  `args` are CLI arguments with `{I}`
standing for the fixed inputs in `inputs/` and `{W}` for the run's work directory,
where prep.py has written the seeded objects.  A job whose output depends on
the benchmark seed is marked `seeded`; its stored digest applies to the
default seed only, and the other checks apply to every seed.
"""

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path

INPUTS = Path(__file__).resolve().parent / "inputs"

WORKLOADS = ("happel-cold", "chain-oracle", "walk-verify")

# the no-work job whose median time is setup_s: the workload's largest quiver
SETUP_QUIVER = {"happel-cold": "E8-alt", "chain-oracle": "A6-lin", "walk-verify": "E6-alt"}

WALKS = 4                          # random-tilting jobs in walk-verify

VERIFY_ROW = re.compile(r"\bstatus=(pass|skip|FAIL)\b")
SUMMAND_LINE = re.compile(r"^summand dim=\[[0-9,]+\] shift=-?\d+ mult=1$")


@dataclass
class Job:
    id: str
    args: list
    seeded: bool = False
    expect: str = None                 # exact stdout, when prep.py could derive it
    must: tuple = ()                   # lines stdout must contain
    check: object = None               # check(stdout) -> error text or None
    verify: bool = False               # stdout is pass/skip/FAIL verify rows


def verify_counts(text):
    """(checked, skipped) from verify rows: pass and FAIL rows were checked."""
    rows = VERIFY_ROW.findall(text)
    return sum(1 for r in rows if r != "skip"), sum(1 for r in rows if r == "skip")


def object_check(n):
    def check(text):
        lines = text.splitlines()
        if len(lines) != n or len(set(lines)) != n or not all(SUMMAND_LINE.match(x) for x in lines):
            return "expected %d distinct summand lines" % n
        return None
    return check


def theoremb_check(last_object):
    """Rows index=i sgldim=2+i, ending at the input object itself."""
    want = hashlib.sha256(last_object.encode()).hexdigest()[:12]

    def check(text):
        rows = [dict(kv.split("=", 1) for kv in line.split()) for line in text.splitlines()]
        if len(rows) < 2:
            return "theoremb chain shorter than two objects"
        for i, row in enumerate(rows):
            if row.get("index") != str(i) or row.get("sgldim") != str(2 + i):
                return "theoremb row %d is not index=%d sgldim=%d" % (i, i, 2 + i)
        if rows[-1].get("object") != want:
            return "theoremb chain does not end at the input object"
        return None
    return check


def _happel(seed, man):
    jobs = []
    for name in ("E7-lin", "E7-alt"):
        q, p = "{I}/%s.q" % name, "{W}/%s.P.obj" % name
        jobs.append(Job("sgd:%s:P" % name, ["sgd", "--quiver", q, "--object", p],
                        must=("s.gl.dim = 1",)))
    q, p = "{I}/E8-alt.q", "{W}/E8-alt.P.obj"
    jobs += [
        Job("tilting:E8-alt:P", ["tilting", "check", "--quiver", q, "--object", p],
            must=("tilting: yes",)),
        Job("hom:E8-alt:P,P", ["hom", "--quiver", q, "--object", p, "--object", p]),
    ]
    for name in ("E7-lin", "E7-alt"):
        q, p, w = "{I}/%s.q" % name, "{W}/%s.P.obj" % name, "{W}/%s.W.obj" % name
        jobs.append(Job("sgd:%s:W" % name, ["sgd", "--quiver", q, "--object", w], seeded=True,
                        expect=man["sgd:%s:W" % name]))
    q, p, w = "{I}/E7-lin.q", "{W}/E7-lin.P.obj", "{W}/E7-lin.W.obj"
    jobs += [
        Job("tilting:E7-lin:W", ["tilting", "check", "--quiver", q, "--object", w],
            seeded=True, must=("tilting: yes",)),
        Job("hom:E7-lin:P,W", ["hom", "--quiver", q, "--object", p, "--object", w],
            seeded=True, expect=man["hom:E7-lin:P,W"]),
        Job("hom:E7-lin:W,W", ["hom", "--quiver", q, "--object", w, "--object", w],
            seeded=True, expect=man["hom:E7-lin:W,W"]),
    ]
    return jobs


def _chain(seed, man):
    return [Job("homagree:%s" % name, ["verify", "homagree", "--quiver", "{I}/%s.q" % name],
                verify=True)
            for name in ("D4-alt", "A5-alt", "D5-alt", "A6-lin")]


def _walk(seed, man):
    q6 = "{I}/E6-alt.q"
    # four short walks rather than one long one: a walk's time depends on the
    # objects it meets, and a sum of four varies less from seed to seed
    walks = [Job("random-tilting:E6-alt:8:%d" % k,
                 ["random-tilting", "--quiver", q6, "--seed", str(WALKS * seed + k), "--steps", "8"],
                 seeded=True, check=object_check(6))
             for k in range(WALKS)]
    return walks + [
        Job("mutate:E6-alt:W", ["mutate", "--quiver", q6, "--object", "{W}/E6-alt.W.obj",
                                "--t2", man["mutate.t2"]],
            seeded=True, expect=man["mutate:E6-alt:W"]),
        # a fixed object: theoremb time depends strongly on the object, and a
        # seeded one would put that spread into wall_s
        Job("theoremb:D5-alt:sgd3", ["theoremb", "--quiver", "{I}/D5-alt.q",
                                     "--object", "{I}/D5-alt-sgd3.obj"],
            check=theoremb_check((INPUTS / "D5-alt-sgd3.obj").read_text())),
        # verify jobs read a fixed corpus seed: a seed whose instances are all
        # skipped would fail the zero-checked rule without any defect
        Job("verify-a:A5-alt", ["verify", "a", "--quiver", "{I}/A5-alt.q", "--seed", "0",
                                "--samples", "4"], verify=True),
        Job("verify-table:E6-alt", ["verify", "table", "--quiver", q6, "--seed", "0",
                                    "--samples", "1"], verify=True),
        Job("verify-delta:E6-alt", ["verify", "delta", "--quiver", q6, "--seed", "0",
                                    "--samples", "2"], verify=True),
    ]


JOBS = {"happel-cold": _happel, "chain-oracle": _chain, "walk-verify": _walk}


def setup_job(workload):
    name = SETUP_QUIVER[workload]
    return Job("setup:quiver-validate:%s" % name,
               ["quiver", "validate", "--quiver", "{I}/%s.q" % name], must=("dynkin: yes",))


def check_output(job, text):
    """First problem with a finished job's stdout, or None."""
    if "status=FAIL" in text:
        return "FAIL row"
    if job.verify and verify_counts(text)[0] == 0:
        return "verify checked no instance"
    if job.expect is not None and text != job.expect:
        return "stdout differs from the prepared expectation"
    lines = text.splitlines()
    for line in job.must:
        if line not in lines:
            return "missing line %r" % line
    if job.check is not None:
        return job.check(text)
    return None
