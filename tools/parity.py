"""Same-answers check: run one fixed matrix of CLI invocations on a parent
revision and on this working tree, and report every difference.

    python tools/parity.py --parent REV [--examples 600]

REV is a git revision, whose ``src/`` is taken with ``git archive``, or a
directory that holds a checkout. The invocations are:

- check-matrix, spectrum, series, degree and pohozaev, as text and with
  ``--json``, on each of ``--examples`` configs drawn from
  ``tests/test_cli_fuzz.configs()`` under
  ``settings(max_examples=N, derandomize=True, database=None)``, so the
  draw is fixed;
- for every config in ``tests/data``: ``solve --json --out`` to a ``.bin``
  and to a ``.csv`` path, then ``verify --json --field`` on the ``.bin``.

The configs are drawn in one child interpreter, and each side runs every
invocation through ``liouville.cli.main`` in one more, with that side's
``src`` first on its path; this process never imports ``liouville``.
Differences in exit code, stdout, warnings and dump bytes are listed one
by one; stderr differences are grouped by error type and field anchor.
Exits 0 when the two sides agree and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("check-matrix", "spectrum", "series", "degree", "pohozaev")
# An error line's type, and its field anchor when the message starts with one.
ERROR_LINE = re.compile(r"error\[(\w+)\]: (?:(\S+?): )?")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision or directory")
    parser.add_argument(
        "--examples", type=int, default=600, help="fuzz configs to draw (600)"
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        work = Path(tmp)
        parent_src = _parent_src(args.parent, work / "parent")
        plan = _plan(work, _child("draw", str(ROOT), str(args.examples), cwd=work))
        (work / "plan.json").write_text(json.dumps(plan))
        sides = {}
        for side, src in (("parent", parent_src), ("change", ROOT / "src")):
            start = time.perf_counter()
            results = _child("side", str(src), str(work / "plan.json"), cwd=work)
            seconds = time.perf_counter() - start
            print(f"{side}: {len(plan)} invocations in {seconds:.1f} s")
            sides[side] = (results, _collect_dumps(work / "dumps"))
        return _report(plan, sides, str(work))


def _parent_src(parent: str, dest: Path) -> Path:
    if Path(parent).is_dir():
        return Path(parent).resolve() / "src"
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", parent, "src"],
        capture_output=True,
        check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(dest, **safe)
    return dest / "src"


def _plan(work: Path, configs: list) -> list[dict]:
    """Each invocation's label and argv; configs are written once, so both
    sides read the same paths."""
    plan = []
    for i, cfg in enumerate(configs):
        path = work / "configs" / f"cfg_{i}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(cfg))
        for command in COMMANDS:
            for flags in ([], ["--json"]):
                label = f"cfg {i}: {command} {' '.join(flags)}".rstrip()
                plan.append({"label": label, "argv": [command, str(path), *flags]})
    for path in sorted((ROOT / "tests" / "data").glob("*.json")):
        if path.name.endswith(".golden.json"):
            continue
        dumps = work / "dumps" / path.stem
        for argv in (
            ["solve", str(path), "--json", "--out", str(dumps / "fields.bin")],
            ["solve", str(path), "--json", "--out", str(dumps / "fields.csv")],
            ["verify", str(path), "--json", "--field", str(dumps / "fields.bin")],
        ):
            label = f"data/{path.name}: {' '.join(argv[2:]).replace(str(work), '')}"
            plan.append({"label": label, "argv": argv, "dumps": str(dumps)})
    return plan


def _child(task: str, *args: str, cwd: Path):
    """Run one of ``CHILDREN`` in a fresh interpreter and return its JSON."""
    out = cwd / f"{task}.json"
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    command = [sys.executable, str(Path(__file__).resolve()), "--child", task]
    subprocess.run([*command, *args, str(out)], cwd=cwd, env=env, check=True)
    return json.loads(out.read_text())


def _draw(root: str, examples: str, out: str) -> None:
    sys.path[:0] = [f"{root}/src", f"{root}/tests"]
    from hypothesis import HealthCheck, given, settings
    from test_cli_fuzz import configs

    drawn = []

    @settings(
        max_examples=int(examples),
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(configs())
    def collect(cfg):
        drawn.append(cfg)

    collect()
    Path(out).write_text(json.dumps(drawn))


def _run_side(src: str, plan: str, out: str) -> None:
    import warnings

    sys.path.insert(0, src)
    import liouville
    from liouville.cli import main as cli

    if not Path(liouville.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError(f"liouville came from {liouville.__file__}, not {src}")
    results = []
    for invocation in json.loads(Path(plan).read_text()):
        if "dumps" in invocation:
            Path(invocation["dumps"]).mkdir(parents=True, exist_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli(invocation["argv"])
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a crash is a result to compare too
                    code = f"raised {type(exc).__name__}: {exc}"
        results.append(
            {
                "exit": code,
                "stdout": stdout.getvalue(),
                "stderr": stderr.getvalue(),
                "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
            }
        )
    Path(out).write_text(json.dumps(results))


CHILDREN = {"draw": _draw, "side": _run_side}


def _collect_dumps(folder: Path) -> dict[str, str]:
    """sha256 of every dump file under folder, by relative path; the folder
    is then removed, so the next side writes to the same empty paths."""
    files = sorted(p for p in folder.rglob("*") if p.is_file())
    hashes = {
        str(p.relative_to(folder)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in files
    }
    shutil.rmtree(folder, ignore_errors=True)
    return hashes


def _report(plan: list[dict], sides: dict, work: str) -> int:
    (parent, parent_dumps), (change, change_dumps) = sides["parent"], sides["change"]
    listed = {"exit code": [], "stdout": [], "warnings": []}
    groups = defaultdict(list)
    for invocation, p, c in zip(plan, parent, change):
        label = invocation["label"]
        if p["exit"] != c["exit"]:
            listed["exit code"].append(f"{label}: {p['exit']} -> {c['exit']}")
        if p["stdout"] != c["stdout"]:
            where = _first_difference(p["stdout"], c["stdout"])
            listed["stdout"].append(f"{label}: {where}")
        if p["warnings"] != c["warnings"]:
            listed["warnings"].append(f"{label}: {p['warnings']} -> {c['warnings']}")
        if p["stderr"] != c["stderr"]:
            key = f"{_error_key(p['stderr'], work)} -> {_error_key(c['stderr'], work)}"
            groups[key].append((label, p["stderr"], c["stderr"]))
    listed["dumps"] = _dump_differences(parent_dumps, change_dumps)
    stderr_count = sum(map(len, groups.values()))
    total = sum(map(len, listed.values())) + stderr_count
    print(f"parity: {len(plan)} invocations, {total} differences")
    for kind, lines in listed.items():
        print(f"{kind}: {len(lines)} differences")
        for line in lines:
            print(f"  {line}")
    print(f"stderr: {stderr_count} differences in {len(groups)} groups")
    for key, members in sorted(groups.items(), key=lambda kv: -len(kv[1])):
        label, p, c = members[0]
        print(f"  {len(members):5d}  {key}")
        print(f"         e.g. {label}")
        print(f"           parent: {_clip(p.replace(work, ''))}")
        print(f"           change: {_clip(c.replace(work, ''))}")
    return 0 if total == 0 else 1


def _error_key(stderr: str, work: str) -> str:
    """error[Type] @ field anchor, with the scratch folder cut from paths."""
    if not stderr:
        return "(none)"
    match = ERROR_LINE.match(stderr.replace(work, ""))
    if match is None:
        return "(no error line)"
    return f"{match.group(1)} @ {match.group(2) or '-'}"


def _first_difference(a: str, b: str) -> str:
    a_lines, b_lines = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(a_lines, b_lines)):
        if x != y:
            return f"line {i + 1}: {_clip(x)} -> {_clip(y)}"
    return f"{len(a_lines)} lines -> {len(b_lines)} lines"


def _dump_differences(parent: dict[str, str], change: dict[str, str]) -> list[str]:
    lines = []
    for name in sorted(parent.keys() | change.keys()):
        p, c = parent.get(name), change.get(name)
        if p == c:
            continue
        if p and c:
            lines.append(f"{name}: bytes differ")
            continue
        side, digest, other = ("parent", p, change) if p else ("change", c, parent)
        twins = [n for n, d in other.items() if d == digest]
        same = f", same bytes as the other side's {', '.join(twins)}" if twins else ""
        lines.append(f"{name}: only at the {side}{same}")
    return lines


def _clip(text: str, width: int = 160) -> str:
    text = text.strip().replace("\n", " | ")
    return text if len(text) <= width else text[: width - 3] + "..."


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        CHILDREN[sys.argv[2]](*sys.argv[3:])
        sys.exit(0)
    sys.exit(main())
