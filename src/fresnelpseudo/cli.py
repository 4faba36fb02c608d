"""Command-line front end: evaluate curves to CSV, run validation
suites, and draw seeded samples.

Exit codes are a stable contract:

* 0  success
* 1  a validation suite reported at least one failing check
* 2  argument or configuration error, including non-finite numbers
* 3  numerical failure raised by the library, or any other unexpected
     error (reported on one line)

CSV output carries a ``#``-prefixed metadata header (tool version,
command, and the full resolved flag set including the seed) so a result
file is self-describing.  A config file of ``key=value`` lines can
supply defaults for any flag; explicit command-line flags win.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from importlib.metadata import PackageNotFoundError, version as _pkg_version

import numpy as np

from .density import PseudoParams, density
from .errors import (
    DomainError,
    FresnelPseudoError,
    InvalidRegime,
    NonConvergent,
    UnsupportedClosedForm,
    UnsupportedExponent,
)
from .mixture import cauchy_mixture_pdf
from .sampling import (
    MixtureSpec,
    SeededStream,
    sample_cauchy_mixture,
    sample_mixture,
    sample_stable,
)
from .special import airy_grid
from .subordination import (
    CauchyCase,
    SubordinationSpec,
    parameter_map,
    subordinated_density_quadrature,
    subordinated_density_series,
)
from .validation import SUITES

OUTDIR_ENV = "FRESNELPSEUDO_OUTDIR"

try:
    TOOL_VERSION = _pkg_version("fresnelpseudo")
except PackageNotFoundError:  # running from a source tree without install
    TOOL_VERSION = "0.0.0"


class CliError(Exception):
    """Bad arguments or config; maps to exit code 2."""


def parse_grid(text):
    """Parse ``min:max:points`` into a float grid.

    >>> parse_grid("-1:1:3")
    array([-1.,  0.,  1.])
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"grid must be min:max:points, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise CliError(f"grid must be min:max:points, got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CliError(f"grid bounds must be finite, got {text!r}")
    if not (lo < hi):
        raise CliError(f"grid min must be below max, got {text!r}")
    if n < 2:
        raise CliError(f"grid needs at least 2 points, got {n}")
    return np.linspace(lo, hi, n)


def read_config(path):
    """Read a ``key=value`` config file; '#' starts a comment line."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    return values


def parse_metadata(lines):
    """Invert the CSV metadata header written by this tool.

    Takes the ``#``-prefixed lines of a result file and returns the
    key=value pairs as a dict of strings.  Used by tests to confirm the
    header round-trips the parameter set.
    """
    meta = {}
    for raw in lines:
        line = raw.strip()
        if not line.startswith("#"):
            break
        body = line[1:].strip()
        if "=" in body:
            key, _, val = body.partition("=")
            meta[key.strip()] = val.strip()
    return meta


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(key, raw, kind):
    try:
        if kind is bool:
            low = raw.lower()
            if low in _BOOL_TRUE:
                return True
            if low in _BOOL_FALSE:
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError as exc:
        raise CliError(f"config value {key}={raw!r} is not a valid {kind.__name__}") from exc


def _resolve(args, config, key, kind, default=None, required=False):
    """Merge precedence: command line > config file > default.

    Float values must be finite (nan and inf parse as floats)."""
    got = getattr(args, key.replace("-", "_"), None)
    if got is not None and got is not False:
        value = got
    elif key in config:
        value = _coerce(key, config[key], kind)
    elif got is False:
        return False
    elif required and default is None:
        raise CliError(f"--{key} is required")
    else:
        return default
    if kind is float and not math.isfinite(value):
        raise CliError(f"--{key} must be finite, got {value}")
    return value


def _open_out(out):
    """Route output: stdout when no path, else a file, with relative
    paths joined under $FRESNELPSEUDO_OUTDIR when that is set."""
    if out is None:
        return sys.stdout, False
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(out):
        out = os.path.join(outdir, out)
    parent = os.path.dirname(out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(out, "w", encoding="utf-8"), True


def _write_header(fh, command, pairs):
    fh.write(f"# fresnelpseudo {TOOL_VERSION}\n")
    fh.write(f"# command={command}\n")
    for key, val in pairs:
        fh.write(f"# {key}={val}\n")


def _subordinated_value(x, spec, t, tol):
    """The p = 1/2, nu > 1 series where it converges, else the direct
    integral (which also takes the points where the series refuses)."""
    if spec.p == 0.5 and spec.nu > 1.0:
        try:
            return subordinated_density_series(x, spec, t, tol)
        except NonConvergent:
            pass
    return subordinated_density_quadrature(x, spec, t, max(tol, 1e-9))


def cmd_eval(args, config):
    fn = _resolve(args, config, "fn", str, required=True)
    if fn not in ("airy", "density", "mixture", "subordinated"):
        raise CliError(f"unknown --fn {fn!r}")
    alpha = _resolve(args, config, "alpha", float, 2.0)
    p = _resolve(args, config, "p", float, 0.5)
    t = _resolve(args, config, "t", float, 1.0)
    theta = _resolve(args, config, "theta", float, 0.5)
    tol = _resolve(args, config, "tol", float, 1e-10)
    grid_text = _resolve(args, config, "grid", str, required=True)
    out = _resolve(args, config, "out", str)
    xs = parse_grid(grid_text)

    if fn == "airy":
        values = airy_grid(xs, alpha, tol)
    elif fn == "density":
        params = PseudoParams(alpha, p, t)
        values = density(xs, params, tol=tol)
    elif fn == "mixture":
        values = cauchy_mixture_pdf(xs, alpha, p, t)
    else:
        spec = SubordinationSpec(alpha, theta, p)
        values = np.array([_subordinated_value(x, spec, t, tol) for x in xs])

    pairs = [("fn", fn), ("alpha", repr(alpha)), ("p", repr(p)), ("t", repr(t))]
    if fn == "subordinated":
        pairs.append(("theta", repr(theta)))
    pairs += [("tol", repr(tol)), ("grid", grid_text)]
    fh, close = _open_out(out)
    try:
        _write_header(fh, "eval", pairs)
        fh.write("x,value\n")
        for x, v in zip(xs, values):
            fh.write(f"{float(x)!r},{float(v)!r}\n")
    finally:
        if close:
            fh.close()
    return 0


def cmd_validate(args, config):
    suite = _resolve(args, config, "suite", str, required=True)
    if suite not in SUITES:
        raise CliError(f"unknown --suite {suite!r}; choose from {sorted(SUITES)}")
    n = _resolve(args, config, "n", int, 100_000)
    seed = _resolve(args, config, "seed", int, 7)
    if suite == "cf-mc":
        if n < 1:
            raise CliError(f"--n must be at least 1, got {n}")
        checks = SUITES[suite](n=n, seed=seed)
    else:
        checks = SUITES[suite]()
    for check in checks:
        print(check.line())
    passed = sum(1 for c in checks if c.passed)
    print(f"suite {suite}: {passed}/{len(checks)} checks passed")
    return 0 if passed == len(checks) else 1


def cmd_sample(args, config):
    mixture = _resolve(args, config, "mixture", bool, False)
    alpha = _resolve(args, config, "alpha", float, 2.0)
    theta = _resolve(args, config, "theta", float, 0.5)
    p = _resolve(args, config, "p", float, 0.5)
    t = _resolve(args, config, "t", float, 1.0)
    n = _resolve(args, config, "n", int, 100)
    seed = _resolve(args, config, "seed", int, required=True)
    stream = _resolve(args, config, "stream", int, 0)
    out = _resolve(args, config, "out", str)
    if n < 1:
        raise CliError(f"--n must be at least 1, got {n}")

    spec = SubordinationSpec(alpha, theta, p)
    mapped = parameter_map(spec)
    rng = SeededStream(seed, stream)
    if mixture:
        if isinstance(mapped, CauchyCase):
            draws = sample_cauchy_mixture(alpha, p, t, n, rng)
        else:
            draws = sample_mixture(MixtureSpec(mapped, p, t), n, rng)
    else:
        # the positively-oriented component H on its own
        if isinstance(mapped, CauchyCase):
            loc = t * mapped.location
            sc = t * mapped.scale
            draws = loc + sc * rng.generator().standard_cauchy(n)
        else:
            draws = sample_stable(mapped, t, n, rng)

    pairs = [
        ("mixture", str(mixture).lower()),
        ("alpha", repr(alpha)),
        ("theta", repr(theta)),
        ("p", repr(p)),
        ("t", repr(t)),
        ("n", repr(n)),
        ("seed", repr(seed)),
        ("stream", repr(stream)),
    ]
    fh, close = _open_out(out)
    try:
        _write_header(fh, "sample", pairs)
        fh.write("value\n")
        for v in draws:
            fh.write(f"{float(v)!r}\n")
    finally:
        if close:
            fh.close()
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fresnelpseudo",
        description="Evaluate oscillatory pseudo-densities, validate the "
        "implementation, and draw seeded samples.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a function on a grid and emit CSV")
    ev.add_argument("--fn", choices=["airy", "density", "mixture", "subordinated"])
    ev.add_argument("--alpha", type=float)
    ev.add_argument("--p", type=float)
    ev.add_argument("--t", type=float)
    ev.add_argument("--theta", type=float)
    ev.add_argument("--tol", type=float)
    ev.add_argument("--grid", help="min:max:points")
    ev.add_argument("--out", help="output file (default stdout)")
    ev.add_argument("--config", help="key=value file supplying flag defaults")
    ev.set_defaults(handler=cmd_eval)

    va = sub.add_parser("validate", help="run a named self-check suite")
    va.add_argument("--suite", choices=sorted(SUITES))
    va.add_argument("--n", type=int, help="Monte Carlo sample count (cf-mc)")
    va.add_argument("--seed", type=int, help="Monte Carlo seed (cf-mc)")
    va.add_argument("--config", help="key=value file supplying flag defaults")
    va.set_defaults(handler=cmd_validate)

    sa = sub.add_parser("sample", help="draw seeded samples and emit CSV")
    sa.add_argument("--mixture", action="store_true", default=None,
                    help="draw from the signed two-sided mixture")
    sa.add_argument("--alpha", type=float)
    sa.add_argument("--theta", type=float)
    sa.add_argument("--p", type=float)
    sa.add_argument("--t", type=float)
    sa.add_argument("--n", type=int)
    sa.add_argument("--seed", type=int)
    sa.add_argument("--stream", type=int)
    sa.add_argument("--out", help="output file (default stdout)")
    sa.add_argument("--config", help="key=value file supplying flag defaults")
    sa.set_defaults(handler=cmd_sample)
    return parser


def _merge_grid_token(argv):
    # "--grid -5:5:501" would be read as a flag named "-5:5:501"; fold the
    # value into one "--grid=..." token so negative grid bounds parse
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--grid" and i + 1 < len(argv):
            out.append("--grid=" + argv[i + 1])
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_grid_token(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = read_config(args.config) if getattr(args, "config", None) else {}
        return args.handler(args, config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, InvalidRegime, UnsupportedExponent, UnsupportedClosedForm) as exc:
        # parameter values the library refuses are argument errors here
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FresnelPseudoError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # any other failure still maps onto the contract
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
