"""Command-line frontend: typeset, solve, validate.

Exit codes: 0 success, 1 failed validation or unsolvable input, 2 I/O errors.
Output is deterministic given the arguments, the input files and --seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fontdata
from .errors import MissingFontFile, PuzzleFontError
from .scene import SvgConfig, emit_svg
from .typeset import DEFAULT_SPACING, solve_puzzle, typeset


def _write_out(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_font(font_id: str, font_dir: str | None) -> fontdata.FontData:
    path = fontdata.find_font_file(font_id, font_dir)
    return fontdata.load_font_file(path)


def cmd_typeset(args) -> int:
    fd = _load_font(args.font, args.font_dir)
    result = typeset(fd, args.text, variant=args.variant, seed=args.seed,
                     spacing=args.spacing, scale=args.scale)
    svg = emit_svg(result.scene, SvgConfig())
    _write_out(svg, args.out)
    if args.puzzle_out:
        if result.puzzle_data is None:
            print(f"note: the {args.font} {args.variant} variant has no machine-readable "
                  f"puzzle form; nothing written to {args.puzzle_out}", file=sys.stderr)
        else:
            with open(args.puzzle_out, "w", encoding="utf-8") as fh:
                fh.write(fontdata.write(result.puzzle_data))
    return 0


def cmd_solve(args) -> int:
    puzzle_fd = fontdata.load_font_file(args.puzzle)
    font_fd = _load_font(puzzle_fd.font_id, args.font_dir)
    outcome = solve_puzzle(font_fd, puzzle_fd)
    print(outcome.text)
    if args.out:
        _write_out(emit_svg(outcome.solution_scene, SvgConfig()), args.out)
    return 0


def cmd_validate(args) -> int:
    worst = 0
    for path in args.paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"{path}: I/O error: {exc}", file=sys.stderr)
            worst = max(worst, 2)
            continue
        fd, diags = fontdata.parse(text)
        issues = [f"{d.line}:{d.column}: {d.message}" for d in diags if d.severity == "error"]
        if fd is not None:
            issues.extend(fontdata.validate(fd).issues)
        if args.format == "json-lines":
            print(json.dumps({"path": str(path), "ok": not issues, "issues": issues},
                             sort_keys=True))
        else:
            status = "ok" if not issues else "FAIL"
            print(f"{path}: {status}")
            for msg in issues:
                print(f"  {msg}")
        if issues:
            worst = max(worst, 1)
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="puzzlefonts",
                                     description="Typeset text in algorithmic puzzle typefaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("typeset", help="render text to SVG")
    t.add_argument("text")
    t.add_argument("--font", required=True, choices=fontdata.FONT_IDS)
    t.add_argument("--variant", default="solved", choices=("solved", "puzzle"))
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", default=None, help="SVG output path (stdout when absent)")
    t.add_argument("--puzzle-out", default=None,
                   help="also write the machine-readable puzzle (.pft)")
    t.add_argument("--font-dir", default=None, help="directory of .pft files (default ./fonts)")
    t.add_argument("--spacing", type=float, default=DEFAULT_SPACING)
    t.add_argument("--scale", type=float, default=1.0)
    t.set_defaults(func=cmd_typeset)

    s = sub.add_parser("solve", help="decode a puzzle file back to text")
    s.add_argument("puzzle", help="puzzle .pft file produced by typeset --puzzle-out")
    s.add_argument("--font-dir", default=None)
    s.add_argument("--out", default=None, help="solution SVG path")
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("validate", help="validate font data files")
    v.add_argument("paths", nargs="+")
    v.add_argument("--format", default="plain", choices=("plain", "json-lines"))
    v.set_defaults(func=cmd_validate)
    return parser


def _is_negative_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return token.startswith("-")


def _attach_negative_values(argv: list) -> list:
    """Write `--spacing -1e-3` as `--spacing=-1e-3`.

    argparse takes only plain negative numbers such as -1 or -0.5 as values
    and reads any other token that starts with '-', -1e-3 among them, as an
    option.  Every option here but --help takes one value, so a long option
    followed by a token that parses as a negative number gets it as its value.
    """
    out: list = []
    for token in argv:
        if (out and out[-1].startswith("--") and len(out[-1]) > 2 and "=" not in out[-1]
                and _is_negative_number(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_negative_values(
        sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except (OSError, MissingFontFile) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PuzzleFontError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
