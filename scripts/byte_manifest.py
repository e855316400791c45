#!/usr/bin/env python3
"""Write the byte-identity artifact set with a sha256 manifest; compare two sets.

    python scripts/byte_manifest.py OUT_DIR [--trials N] [--against OTHER/MANIFEST.sha256]

OUT_DIR receives the six ``reproduce_all.py`` CSVs, the ``channels
dump`` CSVs, ``solution.json`` from ``attocell solve --theta 4mW`` in
direct mode (bisection and closed form), centralized and semi mode,
both traces, and ``exp illuminance --format json``, plus
``MANIFEST.sha256`` (``sha256sum`` format).  The artifacts come from
``reproduce_all.main`` and ``attocell.cli.main``, so they match what
those commands write.  Every file under OUT_DIR is hashed, so start
from a new or empty directory.

With ``--against``, every file whose hash differs from the other
manifest is printed with its count of differing lines and the first of
them, read from the files beside that manifest; the exit status is 1
when anything moved.  To check a change against its parent, run the
script once per source tree, for example with ``PYTHONPATH`` pointing
at the parent's ``src``, and pass the first manifest to the second run.
The bytes are per machine, so compare runs from one machine.
"""

import argparse
import contextlib
import hashlib
import itertools
import os
import sys

import reproduce_all
from attocell import cli

MANIFEST = "MANIFEST.sha256"
THETA = "4mW"
# subdirectory -> attocell command line that writes into it
COMMANDS = {
    "channels": ["channels", "dump"],
    "solve-direct-bisection": ["solve", "--theta", THETA, "--mode", "direct",
                               "--method", "bisection"],
    "solve-direct-closed_form": ["solve", "--theta", THETA, "--mode", "direct",
                                 "--method", "closed_form"],
    "solve-centralized": ["solve", "--theta", THETA, "--mode", "centralized"],
    "solve-semi": ["solve", "--theta", THETA, "--mode", "semi"],
    "exp": ["exp", "illuminance", "--format", "json"],
}


def write_artifacts(out_dir, trials):
    """Run reproduce_all and every command of COMMANDS into ``out_dir``."""
    with contextlib.redirect_stdout(sys.stderr):
        reproduce_all.main(["--trials", str(trials), "--out-dir", out_dir])
        for sub, argv in COMMANDS.items():
            code = cli.main(argv + ["--out-dir", os.path.join(out_dir, sub)])
            if code != cli.EXIT_OK:
                raise SystemExit(f"attocell {' '.join(argv)} exited {code}")


def write_manifest(out_dir):
    """Hash every file under ``out_dir`` into its manifest; returns {path: hash}."""
    hashes = {}
    for root, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.relpath(os.path.join(root, name), out_dir)
            if path != MANIFEST:
                with open(os.path.join(out_dir, path), "rb") as fh:
                    hashes[path] = hashlib.sha256(fh.read()).hexdigest()
    with open(os.path.join(out_dir, MANIFEST), "w") as fh:
        fh.writelines(f"{h}  {p}\n" for p, h in sorted(hashes.items()))
    return hashes


def read_manifest(path):
    with open(path) as fh:
        return {p: h for h, p in (line.rstrip("\n").split("  ", 1) for line in fh)}


def _lines(path):
    # line ends kept, so any byte that moved lands in some line
    with open(path, "rb") as fh:
        return fh.read().splitlines(keepends=True)


def _show(line):
    return "(no line)" if line is None else line.decode().rstrip("\r\n")


def compare(out_dir, other_manifest):
    """Print what moved between ``out_dir``'s manifest and another; returns the moved paths."""
    ours = read_manifest(os.path.join(out_dir, MANIFEST))
    theirs = read_manifest(other_manifest)
    other_dir = os.path.dirname(os.path.abspath(other_manifest))
    moved = sorted(p for p in ours.keys() | theirs.keys() if ours.get(p) != theirs.get(p))
    for path in moved:
        if path not in theirs or path not in ours:
            side = "this run" if path in ours else "the other run"
            print(f"only in {side}: {path}")
            continue
        pairs = list(itertools.zip_longest(_lines(os.path.join(other_dir, path)),
                                           _lines(os.path.join(out_dir, path))))
        diff = [(n, a, b) for n, (a, b) in enumerate(pairs, 1) if a != b]
        n, old, new = diff[0]
        print(f"moved: {path} ({len(diff)} of {len(pairs)} lines differ)")
        print(f"  line {n} was: {_show(old)}")
        print(f"  line {n} now: {_show(new)}")
    if not moved:
        print(f"no file moved ({len(ours)} files)")
    return moved


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out_dir", help="directory for the artifacts and their manifest")
    ap.add_argument("--trials", type=int, default=100,
                    help="Monte-Carlo draws for the RF power sweep")
    ap.add_argument("--against", default=None,
                    help="another run's MANIFEST.sha256 to compare with")
    args = ap.parse_args(argv)
    write_artifacts(args.out_dir, args.trials)
    print(f"wrote {len(write_manifest(args.out_dir))} files and "
          f"{os.path.join(args.out_dir, MANIFEST)}")
    if args.against:
        return 1 if compare(args.out_dir, args.against) else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
