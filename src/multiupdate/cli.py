"""Command-line benchmark runner.

    multiupdate bench --data a9a --algos PA1,OGD --m 1,2,4 --runs 20 --seed 7

Exit codes: 0 success; a package error exits with its code in
errors.EXIT_CODES (an --out or --trace path that cannot be opened for
writing, or the same path for both, is a ConfigError); a click usage error
or an abort exits 1.
"""
from __future__ import annotations

import contextlib
import json
import logging
import os
import sys
from pathlib import Path

import click

from .bench import emit, run_benchmark
from .data import load_dataset, normalize_labels, subsample
from .engine import CountingMode
from .errors import EXIT_CODES, BoundAuditError, ConfigError
from .params import HyperParams

log = logging.getLogger(__name__)


def _parse_m_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --m list {text!r}: {exc}") from None
    if not values:
        raise ConfigError("--m needs at least one value")
    return values


def _parse_overrides(pairs: tuple[str, ...]) -> dict[str, float]:
    overrides: dict[str, float] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ConfigError(f"--set expects name=value, got {pair!r}")
        try:
            overrides[name.strip()] = float(value)
        except ValueError:
            raise ConfigError(f"--set {name}: {value!r} is not a number") from None
    return overrides


def _open_for_writing(files: contextlib.ExitStack, path: str | None, mode: str):
    """Open an output file on files' stack, or return None when path is unset."""
    if not path:
        return None
    try:
        return files.enter_context(open(path, mode, newline="\n"))
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _apply_config_file(ctx: click.Context, params: dict, path: str) -> None:
    """Fill in values from a JSON config file, each converted by its option's
    click type; explicit flags win."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    from_cli = {
        name for name in params
        if ctx.get_parameter_source(name) == click.core.ParameterSource.COMMANDLINE
    }
    aliases = {"m": "m_list", "format": "fmt", "config": "config_path"}
    options = {p.name: p for p in ctx.command.params}
    for key, value in raw.items():
        name = key.replace("-", "_")
        name = aliases.get(name, name)
        if name == "set":
            if not isinstance(value, dict):
                raise ConfigError("config 'set' must map parameter names to numbers")
            # File entries first: later (flag-provided) entries win per key.
            params["set_"] = tuple(f"{k}={v}" for k, v in value.items()) + tuple(params["set_"])
            continue
        if name not in params:
            raise ConfigError(f"config file {path}: unknown option {key!r}")
        if name not in from_cli:
            # click's INT truncates a number with int(); the flag would refuse it
            if options[name].type is click.INT and (
                    isinstance(value, bool)
                    or isinstance(value, float) and not value.is_integer()):
                raise ConfigError(
                    f"config file {path}: option {key!r}: {value!r} is not a valid integer")
            try:
                params[name] = options[name].type_cast_value(ctx, value)
            except (click.BadParameter, TypeError) as exc:
                raise ConfigError(f"config file {path}: option {key!r}: {exc}") from None


@click.group()
def cli() -> None:
    """Online-learning benchmark tool (repeated within-instance updates)."""


@cli.command()
@click.option("--data", required=True, help="Path to the dataset file (gzip ok).")
@click.option("--algos", default="all", show_default=True,
              help="Comma-separated algorithm names, or 'all'.")
@click.option("--m", "m_list", default="1,2,4,8,16,32", show_default=True,
              help="Comma-separated inner-repeat counts.")
@click.option("--runs", default=20, show_default=True, help="Permutation runs per cell.")
@click.option("--seed", default=0, show_default=True,
              help="Base seed; run r permutes with seed+r.")
@click.option("--mode", default="first", show_default=True,
              type=click.Choice([mode.value for mode in CountingMode]),
              help="Mistake counting: first prediction only, or per inner cycle.")
@click.option("--out", default=None, help="Write output here instead of stdout.")
@click.option("--format", "fmt", default="table", show_default=True,
              type=click.Choice(["table", "csv"]), help="Output layout.")
@click.option("--subsample", default=None, type=int,
              help="Keep a seeded random subset of this many rows.")
@click.option("--set", "set_", multiple=True, metavar="NAME=VALUE",
              help="Hyperparameter override (repeatable), e.g. --set C=0.5.")
@click.option("--audit-theorem1", is_flag=True,
              help="Check the norm growth bound on every instance; exit 3 on any failure.")
@click.option("--trace", default=None, help="Write per-instance JSONL records here.")
@click.option("--config", "config_path", default=None,
              help="JSON file with option defaults; explicit flags win.")
@click.option("--verbose", is_flag=True, help="Debug logging (permutation fingerprints).")
@click.pass_context
def bench(ctx: click.Context, **params) -> None:
    """Sweep algorithms x m over seeded permutation runs and print a summary."""
    if params["config_path"]:
        _apply_config_file(ctx, params, params["config_path"])
    logging.basicConfig(
        level=logging.DEBUG if params["verbose"] else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr, force=True)

    if not 0 <= int(params["seed"]) < 2 ** 64:
        raise ConfigError("--seed must fit in an unsigned 64-bit integer")
    m_values = _parse_m_list(str(params["m_list"]))
    if params["out"] and params["trace"] and (
            os.path.realpath(params["out"]) == os.path.realpath(params["trace"])):
        raise ConfigError(f"--out and --trace name the same file {params['out']}")
    hp = HyperParams().replace(**_parse_overrides(tuple(params["set_"])))

    dataset = normalize_labels(load_dataset(params["data"]))
    if params["subsample"] is not None:
        dataset = subsample(dataset, int(params["subsample"]), int(params["seed"]))
    log.debug("dataset %s: n=%d d=%d classes=%d", dataset.name,
              len(dataset.instances), dataset.d, dataset.num_classes)

    with contextlib.ExitStack() as files:
        # Both files open before the sweep, so a bad path costs no sweep work.
        # The report file is opened for appending and emptied only when the
        # report is written, so a sweep that fails leaves its old contents.
        out_fh = _open_for_writing(files, params["out"], "a")
        trace_fh = _open_for_writing(files, params["trace"], "w")
        result = run_benchmark(
            dataset, params["algos"], m_values, int(params["runs"]), int(params["seed"]),
            counting_mode=CountingMode(params["mode"]),
            hp=hp, audit=params["audit_theorem1"], trace_fh=trace_fh)
        text = emit(result, params["fmt"])
        if out_fh is not None:
            out_fh.truncate(0)
            out_fh.write(text)
        else:
            click.echo(text, nl=False)

    if params["audit_theorem1"]:
        if result.audit_passed:
            click.echo(
                f"norm-bound audit: {result.audited_instances} instance checks passed "
                f"(min slack {result.audit_min_slack:.3e})", err=True)
        else:
            for f in result.audit_failures[:10]:
                click.echo(
                    f"norm-bound audit FAILED: {f.algorithm} m={f.m} run={f.run} "
                    f"instance={f.instance}: |w*|={f.lhs:.12g} > bound {f.rhs:.12g}",
                    err=True)
            raise BoundAuditError(
                f"{len(result.audit_failures)} of {result.audited_instances} "
                "instance checks exceeded the norm growth bound")


def main(argv: list[str] | None = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except tuple(EXIT_CODES) as exc:
        click.echo(f"error: {exc}", err=True)
        return next(code for error, code in EXIT_CODES.items() if isinstance(exc, error))
    except click.UsageError as exc:
        exc.show(file=sys.stderr)
        return 1
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
