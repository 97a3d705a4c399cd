"""The command line's option surface, pinned option by option.

Each row is (option strings, dest, default, type, required, choices, action,
help, metavar) for one argparse action, in declaration order, so a change to
how the parser is built cannot add, drop or alter a flag unnoticed.
"""

import argparse

from sketchpca.cli import build_parser

HELP = ("-h --help", "help", argparse.SUPPRESS, None, False, None, "_HelpAction",
        "show this help message and exit", None)
SOLVER_HEAD = [
    ("--input", "input", None, None, True, None, "_StoreAction", None, None),
    ("-k --k", "k", None, "int", True, None, "_StoreAction", None, None),
    ("--eps", "eps", None, "float", True, None, "_StoreAction", None, None),
]
SOLVER_TAIL = [
    ("--seed", "seed", 0, "int", False, None, "_StoreAction", None, None),
    ("--trials", "trials", 1, "int", False, None, "_StoreAction", None, None),
    ("--timings", "timings", False, None, False, None, "_StoreTrueAction",
     "include wall_time_s (breaks byte-identical output)", None),
    ("--json-out", "json_out", None, None, False, None, "_StoreAction", None, "PATH"),
]


def _int(flag, default=None, help=None):
    dest = flag.lstrip("-").replace("-", "_")
    return (flag, dest, default, "int", False, None, "_StoreAction", help, None)


def _float(flag, default=None, help=None):
    dest = flag.lstrip("-").replace("-", "_")
    return (flag, dest, default, "float", False, None, "_StoreAction", help, None)


def _switch(flag, help=None):
    dest = flag.lstrip("-").replace("-", "_")
    return (flag, dest, False, None, False, None, "_StoreTrueAction", help, None)


def _path(flag, help):
    dest = flag.lstrip("-").replace("-", "_")
    return (flag, dest, None, None, False, None, "_StoreAction", help, "PATH")


NOISE_SCALE = _float(
    "--noise-scale",
    help="entry size eta of the seeded sign grid Z the server adds in the smoothed "
         "branch, on the first p = min(n, xi) columns of A (all of A when n <= xi; "
         "xi the sketch width), through its image Z Tr[:p] under the right sketch; "
         "its Frobenius norm is eta sqrt(m p); default 1e-6 times the RMS entry of "
         "A, estimated from the gathered sketch; 0 disables it")

XI_SUBSPACE_HELP = (
    "width of the finalize sketch, which every machine then ships; default a "
    "rank-k projection-cost-preserving sketch (Cohen et al., STOC 2015) whose "
    "width depends on k and eps only, shipped by a machine wider than it only "
    "when shorter than both its raw columns and the R factor of (Y^T A_i)^T (Y "
    "an orthonormal basis of the selected columns' span)")


def _solver(*extra):
    return [HELP, *SOLVER_HEAD, *extra, *SOLVER_TAIL]


def _css(variant):
    return _solver(
        _int("--machines"),
        _path("--widths", "JSON widths manifest overriding --machines"),
        _int("--const-ell"), variant, _int("--const-c2"),
        _int("--const-xi-subspace", help=XI_SUBSPACE_HELP))


EXPECTED = {
    "batch": ("two-sided sketch PCA on a dense matrix", _solver(
        _float("--rounding", 0.0), _int("--const-xi-left"),
        _int("--const-xi-right"))),
    "dist-arb": ("arbitrary-partition protocol", _solver(
        _int("--machines", 2), NOISE_SCALE, _float("--rounding", 0.0),
        _int("--const-xi-sketch"), _int("--const-xi-affine"))),
    "dist-css": ("column-partition selection protocol",
                 _css(_int("--const-c1"))),
    "dist-css-fast": ("column-partition selection protocol (sketched)",
                      _css(_float("--delta", 0.05))),
    "stream-1p": ("one-pass turnstile PCA", _solver(
        _int("--const-xi-regression"), _int("--const-xi-affine"))),
    "stream-1p-fact": ("one-pass turnstile PCA with factors", _solver(
        _int("--const-xi-regression"), _int("--const-xi-affine"))),
    "stream-2p": ("two-pass turnstile PCA", _solver(
        NOISE_SCALE, _float("--rounding", 0.0))),
    "gen": ("write a test instance", [
        HELP,
        ("", "family", None, None, True, ("dense-hard", "css-hard", "lowrank"),
         "_StoreAction", None, None),
        _int("--m"), _int("--n"),
        ("-k --k", "k", None, "int", False, None, "_StoreAction", None, None),
        _int("--machines", 3), _float("--wall"), _int("--phi"),
        _float("--eps", 0.25), _switch("--rotate"), _float("--granularity"),
        _float("--noise", 0.0),
        _switch("--stream", "lowrank only: write a stream file instead of a matrix"),
        _int("--seed", 0),
        _path("--output", "default stdout"),
        _path("--manifest", "dense-hard only: write the partition widths"),
    ]),
    "check": ("rerun module invariants", [
        HELP, _path("--json-out", None)]),
}


def _row(action):
    return (" ".join(action.option_strings), action.dest, action.default,
            getattr(action.type, "__name__", action.type), action.required,
            None if action.choices is None else tuple(action.choices),
            type(action).__name__, action.help, action.metavar)


def _subcommands():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    helps = {c.dest: c.help for c in sub._choices_actions}
    return parser, sub, helps


def test_subcommands_and_their_order():
    _, sub, helps = _subcommands()
    assert list(sub.choices) == list(EXPECTED)
    assert helps == {name: help for name, (help, _) in EXPECTED.items()}


def test_every_option_of_every_subcommand():
    _, sub, _ = _subcommands()
    for name, (_, rows) in EXPECTED.items():
        got = [_row(a) for a in sub.choices[name]._actions]
        assert got == rows, name


def test_top_level_parser():
    parser, sub, _ = _subcommands()
    assert [_row(a) for a in parser._actions if a is not sub] == [HELP]
    assert (sub.dest, sub.required) == ("cmd", False)
