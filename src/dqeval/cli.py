"""Command-line interface.

Commands: cards, select, evaluate, subset, compare, ptbxl-harness.
Exit codes: 0 = ran (per-metric failures are recorded in the report),
1 = usage error, 2 = data load error.
"""

from __future__ import annotations

import json
import os
import sys

import click
import numpy as np

from . import harness as _harness
from . import registry as _registry
from . import selection as _selection
from .datamodel import reject_json_constant
from .report import (
    DataLoadError,
    build_report,
    check_same_schema,
    compare_results,
    evaluate_row,
    load_dataset,
    read_descriptor,
    render_comparison_markdown,
    render_report_markdown,
    report_json,
)


@click.group()
@click.option("--seed", type=int, default=None, help="Seed for any randomized step.")
@click.option("--verbose", is_flag=True, help="Chatty progress output on stderr.")
@click.pass_context
def cli(ctx: click.Context, seed: int | None, verbose: bool) -> None:
    """Data quality evaluation: metric cards, decision trees, reports."""
    ctx.obj = {"seed": seed, "verbose": verbose}


def _read_json(path: str, what: str) -> dict:
    """The JSON object in path; anything else is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=reject_json_constant)
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot read {what} {path}: {exc}")
    if not isinstance(doc, dict):
        raise click.UsageError(f"{what} must be a JSON object: {path}")
    return doc


def _write(path: str, text: str) -> None:
    """Write text to path, creating no directory; failing is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise click.UsageError(f"cannot write {path}: {exc}")


def _make_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise click.UsageError(f"cannot write {path}: {exc}")


def _params_map(doc: dict) -> dict:
    """A metric id -> params object map; any other value is a usage error."""
    for mid, params in doc.items():
        if not isinstance(params, dict):
            raise click.UsageError(f"params of {mid!r} must be a JSON object")
    return doc


def _note(ctx: click.Context, message: str) -> None:
    if ctx.obj.get("verbose"):
        click.echo(message, err=True)


@cli.group()
def cards() -> None:
    """Inspect and export the metric-card library."""


@cards.command("list")
@click.option("--dim", default=None, help="Filter by quality dimension.")
@click.option("--group", default=None, help="Filter by metric group.")
@click.option("--modality", default=None, help="Filter by data modality.")
@click.option("--vtype", default=None, help="Filter by variable type.")
def cards_list(dim, group, modality, vtype) -> None:
    """One line per card: id, group, dimensions."""
    try:
        found = _registry.filter_cards(dim=dim, modality=modality, vtype=vtype, group=group)
    except _registry.RegistryError as exc:
        raise click.UsageError(str(exc))
    for c in found:
        click.echo(f"{c.id}\t{c.group}\t{','.join(c.dimensions)}")


@cards.command("show")
@click.argument("metric_id")
@click.option("--format", "fmt", type=click.Choice(["markdown", "json"]), default="markdown")
def cards_show(metric_id: str, fmt: str) -> None:
    """Render one card."""
    try:
        click.echo(_registry.render_card(metric_id, format=fmt), nl=False)
    except _registry.RegistryError as exc:
        raise click.UsageError(str(exc))


@cards.command("export")
@click.option("--format", "fmt", type=click.Choice(["md", "json"]), default="md")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def cards_export(fmt: str, out_dir: str) -> None:
    """Write every card to its own file."""
    _make_dir(out_dir)
    render_fmt = "markdown" if fmt == "md" else "json"
    for c in _registry.all_cards():
        _write(os.path.join(out_dir, f"{c.id}.{fmt}"), _registry.render_card(c.id, format=render_fmt))
    click.echo(f"wrote {len(_registry.all_cards())} cards to {out_dir}")


def _ask(dim: str, question: _selection.Question):
    """Prompt until the answer is blank (skip) or every comma-separated label is valid."""
    labels = [label for label, _ in question.answers]
    normed = {_selection._norm(label) for label in labels}
    while True:
        raw = click.prompt(f"[{dim}] {question.text} {labels}", default="", show_default=False)
        tokens = [t.strip() for t in raw.split(",") if t.strip()]
        if not tokens:
            return None
        if all(_selection._norm(t) in normed for t in tokens):
            return tokens if len(tokens) > 1 else tokens[0]
        click.echo(f"please answer with one of {labels} (comma-separate multiple)")


@cli.command("select")
@click.option("--profile", "profile_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--interactive", is_flag=True)
@click.option("--mode", type=click.Choice(["strict", "partial"]), default="partial")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.pass_context
def select_cmd(ctx, profile_path, interactive, mode, out_path) -> None:
    """Run the decision trees against a use-case profile."""
    if interactive == (profile_path is not None):
        raise click.UsageError("provide exactly one of --profile FILE or --interactive")
    if interactive:
        click.echo("Answer each question, or press enter to skip it.")
    profile = {} if interactive else _read_json(profile_path, "profile")
    try:
        sel = _selection.select_all(profile, mode=mode, ask=_ask if interactive else None)
    except _selection.SelectionError as exc:
        raise click.UsageError(str(exc))
    doc = _selection.rationale_document(sel, params={"mode": mode, "seed": ctx.obj["seed"]})
    _write(out_path, json.dumps(doc, indent=2, ensure_ascii=False) + "\n")
    metrics = sel.metrics()
    click.echo(f"selected {len(metrics)} metrics across {len(sel.selections)} dimensions -> {out_path}")
    for s in sel.selections:
        if s.unanswered:
            click.echo(f"  {s.dimension}: unanswered {', '.join(s.unanswered)}", err=True)


@cli.command("evaluate")
@click.option("--data", "data_path", required=True, type=click.Path(dir_okay=False))
@click.option("--selection", "selection_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--params", "params_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--markdown", "md_path", type=click.Path(dir_okay=False), default=None)
@click.pass_context
def evaluate_cmd(ctx, data_path, selection_path, params_path, out_path, md_path) -> None:
    """Compute every selected metric on a dataset; failures become rows."""
    ds = load_dataset(read_descriptor(data_path))
    sel_doc = _read_json(selection_path, "selection")
    loaded = _read_json(params_path, "params") if params_path else {}
    if "rows" in loaded:
        rows = loaded["rows"]
        if not isinstance(rows, list) or not all(
            isinstance(row, dict)
            and isinstance(row.get("metric_id"), str)
            and isinstance(row.get("params", {}), dict)
            for row in rows
        ):
            raise click.UsageError("params rows must be a list of objects with a metric_id and object params")
    else:
        frags = sel_doc.get("selections", [])
        if not isinstance(frags, list) or not all(
            isinstance(f, dict) and isinstance(f.get("metrics", []), list)
            and all(isinstance(mid, str) for mid in f.get("metrics", []))
            for f in frags
        ):
            raise click.UsageError("selection selections must be a list of objects with a list of metric ids")
        params_map = _params_map(loaded)
        rows = [
            {"metric_id": mid, "dimension": f.get("dimension", ""), "params": params_map.get(mid, {})}
            for f in frags
            for mid in f.get("metrics", [])
        ]
    profile = sel_doc.get("profile", {})
    if not isinstance(profile, dict):
        raise click.UsageError("selection profile must be a JSON object")

    seed = ctx.obj["seed"]
    results = []
    for row in rows:
        mid, dim = row["metric_id"], row.get("dimension", "")
        results.append(evaluate_row(ds, mid, dim, params=row.get("params", {}), seed=seed))
        _note(ctx, f"evaluated {mid} for {dim}")
    report = build_report(ds.dataset_id, profile, sel_doc, results, seed=seed)
    _write(out_path, report_json(report))
    if md_path:
        _write(md_path, render_report_markdown(report))
    failures = sum(1 for r in results if "error" in r)
    click.echo(f"wrote {out_path}: {len(results)} results, {failures} recorded failures")


@cli.command("subset")
@click.option("--data", "data_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--recipe", "recipe_src", required=True,
              help="Recipe JSON: inline string or a file path.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.pass_context
def subset_cmd(ctx, data_path, recipe_src, out_dir) -> None:
    """Write a stratified-subset descriptor plus its row index file."""
    try:
        if os.path.isfile(recipe_src):
            with open(recipe_src, "r", encoding="utf-8") as fh:
                recipe_src = fh.read()
        recipe = json.loads(recipe_src, parse_constant=reject_json_constant)
    except ValueError as exc:
        raise click.UsageError(f"recipe is not valid JSON: {exc}")
    if not isinstance(recipe, dict):
        raise click.UsageError("recipe must be a JSON object")
    if recipe.get("seed") is None and ctx.obj["seed"] is not None:
        recipe["seed"] = ctx.obj["seed"]

    ds = load_dataset(read_descriptor(data_path))
    try:
        indices = _harness.apply_recipe(ds, recipe)
    except _harness.HarnessError as exc:
        raise click.UsageError(str(exc))

    _make_dir(out_dir)
    _write(os.path.join(out_dir, "indices.json"), json.dumps(indices) + "\n")
    doc = _read_json(data_path, "descriptor")
    base = os.path.dirname(os.path.abspath(data_path))
    doc["table"]["path"] = os.path.join(base, doc["table"]["path"])
    if doc.get("signals"):
        doc["signals"]["dir"] = os.path.join(base, doc["signals"]["dir"])
    doc["dictionaries"] = {  # load_dataset reads a dictionary file beside the table
        k: (os.path.join(os.path.dirname(doc["table"]["path"]), v) if isinstance(v, str) else v)
        for k, v in doc.get("dictionaries", {}).items()
    }
    doc["row_index"] = "indices.json"
    doc["dataset_id"] = f"{doc.get('dataset_id', 'dataset')}[{recipe['kind']}]"
    out_desc = os.path.join(out_dir, "descriptor.json")
    _write(out_desc, json.dumps(doc, indent=2) + "\n")
    click.echo(f"subset: {len(indices)} records -> {out_desc}")


@cli.command("compare")
@click.option("--data", "data_paths", required=True, multiple=True,
              help="Give twice: --data A --data B.")
@click.option("--metrics", "metrics_csv", required=True,
              help="Comma-separated metric ids.")
@click.option("--params", "params_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@click.pass_context
def compare_cmd(ctx, data_paths, metrics_csv, params_path, out_path) -> None:
    """Evaluate the same metrics on two datasets and show deltas."""
    if len(data_paths) != 2:
        raise click.UsageError("compare needs exactly two --data descriptors")
    ds_a = load_dataset(read_descriptor(data_paths[0]))
    ds_b = load_dataset(read_descriptor(data_paths[1]))
    try:
        check_same_schema(ds_a, ds_b)
    except DataLoadError as exc:
        raise click.UsageError(str(exc))
    params_map = _params_map(_read_json(params_path, "params")) if params_path else {}
    metric_ids = [m.strip() for m in metrics_csv.split(",") if m.strip()]
    if not metric_ids:
        raise click.UsageError("no metric ids given")
    seed = ctx.obj["seed"]
    rows_a, rows_b = [], []
    for mid in metric_ids:
        try:
            dim = _registry.card(mid).dimensions[0]
        except _registry.RegistryError as exc:
            raise click.UsageError(str(exc))
        p = params_map.get(mid, {})
        rows_a.append(evaluate_row(ds_a, mid, dim, params=p, seed=seed))
        rows_b.append(evaluate_row(ds_b, mid, dim, params=p, seed=seed))
    pairs = compare_results(rows_a, rows_b)
    md = render_comparison_markdown(pairs, ds_a.dataset_id, ds_b.dataset_id)
    click.echo(md, nl=False)
    if out_path:
        _write(out_path, json.dumps({"a": rows_a, "b": rows_b, "pairs": pairs}, indent=2) + "\n")


@cli.command("ptbxl-harness")
@click.option("--root", "root_dir", required=True, type=click.Path(file_okay=False))
@click.option("--now", type=float, default=None,
              help="Evaluation time as epoch seconds (defaults to the current time).")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None)
@click.option("--entropy-records", type=click.IntRange(min=1), default=100, show_default=True,
              help="Records drawn with the seed for each report's sample entropy "
                   "(echoed as max_records and seed in the row params when it "
                   "caps a report).")
@click.option("--entropy-samples", type=click.IntRange(min=1), default=500, show_default=True,
              help="Leading samples of each lead kept for sample entropy "
                   "(echoed as max_samples in the row params).")
@click.pass_context
def ptbxl_harness_cmd(ctx, root_dir, now, out_dir, entropy_records, entropy_samples) -> None:
    """Reproduce the case-study table on local PTB-XL data (plus 3 subsets)."""
    try:
        out = _harness.run_harness(
            root_dir,
            seed=ctx.obj["seed"] if ctx.obj["seed"] is not None else 0,
            now=now,
            entropy_max_records=entropy_records,
            entropy_max_samples=entropy_samples,
        )
    except _harness.PtbxlNotFound as exc:
        click.echo(f"skipped: {exc}")
        return
    except _harness.HarnessError as exc:  # a recipe the root cannot meet
        raise click.ClickException(str(exc))
    click.echo(out["markdown"], nl=False)
    for c in out["checks"]:
        click.echo(f"check {'ok' if c['passed'] else 'FAILED'}: {c['check']}", err=True)
    if out_dir:
        _make_dir(out_dir)
        for rep in out["reports"]:
            _write(os.path.join(out_dir, f"{rep['dataset_id']}.json"), report_json(rep))
        _write(os.path.join(out_dir, "table.md"), out["markdown"])
        click.echo(f"wrote {len(out['reports'])} reports to {out_dir}", err=True)
    failed = sum(not c["passed"] for c in out["checks"])
    if out["real_data"] and failed:  # a synthetic root's checks are printed, not enforced
        raise click.ClickException(f"{failed} of {len(out['checks'])} reproduction checks failed on the real table")


def _keep_freed_memory() -> None:
    """Let glibc's malloc keep freed blocks of up to 4 MiB for reuse.

    glibc maps each block over 128 kB on its own and hands free heap top
    over 128 kB back to the system, until a mapped block is freed: blocks
    up to that size then stay in the heap, and the top is kept up to twice
    it. Importing scipy used to free such a block as a side effect. Without
    it, the ~1 MB of temporaries sample entropy frees after each lead was
    faulted in again for the next one (up to about 1 800 page faults per
    call on one 12 x 5000 record, 20-30% of the call). mallopt would fix
    the limits for good; freeing a block leaves glibc adjusting them. Other
    allocators just allocate and free the block.
    """
    np.empty(4 << 20, np.uint8)


def main(argv=None) -> int:
    """Entry point with the documented exit codes."""
    _keep_freed_memory()
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except DataLoadError as exc:
        click.echo(f"data load error: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
