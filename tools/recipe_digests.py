"""Run the eight published recipes through `coulscat.cli.main` in one
process and print, for each, its exit code and the sha256 of its out file,
its stdout and its stderr.

    PYTHONPATH=src python tools/recipe_digests.py [--recipes DIR]

Run from the root of a checkout.  Two checkouts that print the same lines
write the same bytes for every recipe; compare them with `diff`.  Out files
go to a temporary directory that is removed afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

# recipe file-name prefix -> the command it runs
COMMANDS = {
    "angular": "angular",
    "energy-scan": "energy-scan",
    "optical": "optical",
    "profile": "profile-delta",
}


def find_recipes(directory: Path) -> list:
    """(path, command) of each *.cfg recipe in `directory`, sorted by name;
    exits with status 2 when there is none."""
    recipes = sorted(directory.glob("*.cfg"))
    if not recipes:
        print(f"no *.cfg recipes in {directory}", file=sys.stderr)
        sys.exit(2)
    return [(r, next(c for prefix, c in COMMANDS.items() if r.name.startswith(prefix)))
            for r in recipes]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(recipe: Path, command: str, out: Path) -> str:
    """One line: the recipe's name, exit code and three digests."""
    # imported here, so tools/cold_start.py takes `find_recipes` without
    # the package in its own process
    from coulscat import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([command, "--config", str(recipe), "--out", str(out)])
    written = out.read_bytes() if out.exists() else b""
    return (f"{recipe.name} exit={code} out={_sha256(written)} "
            f"stdout={_sha256(stdout.getvalue().encode())} "
            f"stderr={_sha256(stderr.getvalue().encode())}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--recipes", default="recipes", type=Path,
                        help="directory of *.cfg recipes (default: recipes)")
    args = parser.parse_args(argv)
    recipes = find_recipes(args.recipes)
    with tempfile.TemporaryDirectory() as tmp:
        for recipe, command in recipes:
            print(digest(recipe, command, Path(tmp) / (recipe.name + ".out")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
