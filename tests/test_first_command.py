"""The first command of a fresh process imports nothing.

A CLI user pays interpreter start, set-up and one cold command on every
run, so a module that a command imports on first use is paid on every
invocation.  This runs the set-up a CLI process makes (import the CLI,
parse kernels and functions, build the parser), snapshots sys.modules,
runs one command of each kind and asserts that no module was added.
It then runs the same commands again, on the caches the first run
warmed, and asserts the same stdout and files byte for byte.
It also asserts that OpenSSL's `_hashlib` is never loaded: the run
record's digest comes from CPython's built-in SHA-256.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PSI = "translates:2:a=e^2,b=e^3"
KERNELS = ["bspline:2", "bspline:4", PSI]
FUNCTIONS = ["name:fig1", "name:sinlog", "expr:x^2*cos(2*pi*x)"]
INVOCATIONS = [
    ["moments", "--kernel", PSI, "--order", "2", "--route", "poisson"],
    ["moments", "--kernel", PSI, "--order", "2", "--route", "discrete",
     "--u", "1.7"],
    ["moments", "--kernel", PSI, "--order", "2", "--route", "continuous"],
    ["moments", "--kernel", PSI, "--order", "2",
     "--route", "absolute-continuous"],
    ["moments", "--kernel", PSI, "--order", "2",
     "--route", "absolute-discrete"],
    ["verify", "--chi", "bspline:4", "--phi", "bspline:2", "--r", "3"],
    ["verify", "--chi", PSI, "--phi", "bspline:2"],
    ["eval", "--chi", "bspline:4", "--phi", "bspline:4", "--fn",
     "expr:x^2*cos(2*pi*x)", "--x", "3.2,3.3", "--w", "25",
     "--out", "eval.csv"],
    ["table", "--chi", "bspline:4", "--phi", "bspline:2", "--fn",
     "name:fig1", "--x", "1.75,2.1", "--w", "10", "--combine", "p=2",
     "--format", "json", "--out", "table.json"],
    ["rates", "--chi", "bspline:4", "--phi", "bspline:2", "--fn",
     "name:sinlog", "--x", "2", "--w", "50,100,200", "--combine", "p=3",
     "--out", "rates.json"],
    ["voronovskaya", "--chi", PSI, "--phi", "bspline:2", "--fn",
     "name:sinlog", "--x", "2", "--w", "50,100,200", "--j", "2",
     "--out", "voronovskaya.json"],
]

CHILD = """
import contextlib, io, json, pathlib, sys
import expsample.cli
from expsample import function_from_spec, parse_kernel

kernels, functions, invocations = json.loads(sys.argv[1])
for descriptor in kernels:
    parse_kernel(descriptor)
for spec in functions:
    function_from_spec(spec)
expsample.cli.build_parser().parse_args(invocations[0])
before = set(sys.modules)


def run():
    codes, outputs = [], []
    for argv in invocations:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            codes.append(expsample.cli.main(argv))
        outputs.append(out.getvalue())
    files = {p.name: p.read_bytes().decode() for p in pathlib.Path().iterdir()}
    return codes, outputs, files


codes, outputs, files = run()
added = sorted(set(sys.modules) - before)
print(json.dumps({"codes": codes, "added": added,
                  "hashlib": "_hashlib" in sys.modules,
                  "warm_same": run() == (codes, outputs, files)}))
"""


def test_first_commands_import_no_module(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    args = json.dumps([KERNELS, FUNCTIONS, INVOCATIONS])
    proc = subprocess.run([sys.executable, "-c", CHILD, args], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(INVOCATIONS)
    assert result["added"] == []
    # a second run, on warm caches, reproduces stdout and every file
    assert result["warm_same"]
    # a build without the built-in modules takes the hashlib fallback
    if any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
        assert not result["hashlib"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "eval.csv", "rates.json", "table.json", "voronovskaya.json"]
