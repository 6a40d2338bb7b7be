"""Compare two trees of memwave artifacts, file by file.

    python3 tools/artdiff.py PARENT CHANGE

Every file under either tree is compared by its bytes.  A file that
differs is read as a memwave artifact: a CSV table (its '#' header
lines, then rows of numbers) by column, a JSON document by the path of
each value, with list indices left out of the key, so the entries of
one list share it.  For each key whose numbers differ it prints the max
|d| and the max |d| / max(1, |v|), v the value in PARENT.

Exits 1 on a structural difference: a file in one tree only, a
differing file that is neither CSV nor JSON, or keys, shapes (lengths,
row counts) or non-numeric values (strings, booleans, nulls, header
lines) that differ; else 0, also when numbers differ.
"""

import json
import re
import sys
from pathlib import Path


def files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file()}


def json_leaves(value, path=""):
    """(path, value) of every scalar of a JSON document."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from json_leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from json_leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def csv_leaves(text: str):
    """(path, value) of every cell of a CSV artifact, the path its
    column and row, and of every header line."""
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#")]
    columns = header[-1].lstrip("# ").split(",") if header else []
    for i, line in enumerate(header):
        yield f"#header[{i}]", line
    for r, line in enumerate(lines[len(header):]):
        for c, cell in enumerate(line.split(",")):
            name = columns[c] if c < len(columns) else f"column {c}"
            try:
                yield f"{name}[{r}]", float(cell)
            except ValueError:
                yield f"{name}[{r}]", cell


def leaves(name: str, data: bytes):
    """{path: value} of an artifact, or None if it is not a CSV or JSON
    artifact that parses."""
    try:
        if name.endswith(".csv"):
            return dict(csv_leaves(data.decode()))
        if name.endswith(".json"):
            return dict(json_leaves(json.loads(data)))
    except ValueError:              # not text, or not JSON
        pass
    return None


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare(name: str, old: bytes, new: bytes) -> bool:
    """Print how artifact name differs; True when the difference is
    structural."""
    a, b = leaves(name, old), leaves(name, new)
    if a is None:
        print(f"! {name}: differs, and is neither CSV nor JSON")
        return True
    if a.keys() != b.keys():
        only = sorted(a.keys() ^ b.keys())
        print(f"! {name}: {len(only)} paths in one tree only, first "
              f"{only[0]}")
        return True
    worst = {}
    structural = False
    for path, v in a.items():
        w = b[path]
        if not (is_number(v) and is_number(w)):
            if v != w or type(v) is not type(w):
                print(f"! {name}: {path} is {v!r} against {w!r}")
                structural = True
            continue
        d = abs(w - v)
        if d:
            key = re.sub(r"\[\d+\]", "", path)
            dmax, rmax = worst.get(key, (0.0, 0.0))
            worst[key] = (max(dmax, d), max(rmax, d / max(1.0, abs(v))))
    for key, (dmax, rmax) in sorted(worst.items()):
        print(f"~ {name}: {key}  max|d| {dmax:.3e}  max rel {rmax:.3e}")
    if not worst and not structural:
        print(f"~ {name}: bytes differ, every value is equal")
    return structural


def main(argv) -> int:
    if len(argv) != 2 or not all(Path(p).is_dir() for p in argv):
        print("usage: python3 tools/artdiff.py PARENT CHANGE",
              file=sys.stderr)
        return 2
    parent, change = (Path(p) for p in argv)
    old, new = files(parent), files(change)
    structural = False
    for name in sorted(old ^ new):
        print(f"! {name}: only in {'PARENT' if name in old else 'CHANGE'}")
        structural = True
    same = 0
    for name in sorted(old & new):
        a, b = (parent / name).read_bytes(), (change / name).read_bytes()
        if a == b:
            same += 1
        else:
            structural |= compare(name, a, b)
    print(f"{same} of {len(old | new)} files byte-identical")
    return 1 if structural else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
