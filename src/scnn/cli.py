"""Batch command-line front end.

Subcommands: synth, search, train, stack, predict, evaluate, gradcheck.
Every randomized command requires an explicit --seed; re-running any command
with identical inputs and seed produces byte-identical artifacts.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure,
4 internal error (any other exception, such as a search worker process that
died; it prints ``internal error: <type>: <message>``). Partial outputs are
removed when a command fails.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import sys

import numpy as np

from . import corpus, embeddings, metrics, search, synth
from .ensemble import (load_ensemble, save_ensemble, stack_top_k, stacked_predict,
                       train_fold_ensemble)
from .errors import DataError, NumericError, ScnnError
from .fileio import atomic_write, file_sha256, open_text, read_json
from .gradcheck import TOLERANCE, run_gradcheck
from .model import HyperParams, TrainSchedule, validate_hyperparams
from .rng import Rng

logger = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class _Outputs:
    """Tracks artifacts created by the running command so a failure can
    remove them instead of leaving partial outputs behind."""

    def __init__(self):
        self.created = []

    def claim_dir(self, path) -> str:
        if not os.path.exists(path):
            os.makedirs(path)
            self.created.append(path)
        return path

    def claim_file(self, path) -> str:
        if not os.path.exists(path):
            self.created.append(path)
        return path

    def discard_all(self):
        for path in reversed(self.created):
            try:
                if os.path.isdir(path):
                    shutil.rmtree(path)
                elif os.path.exists(path):
                    os.remove(path)
            except OSError:  # best effort; never mask the original error
                pass


def _parse_embeddings_flag(spec: str) -> dict:
    registry = {}
    for item in spec.split(","):
        name, sep, path = item.partition("=")
        if not sep or not name or not path:
            raise UsageError(f"--embeddings entries must be name=path, got {item!r}")
        if name in registry:
            raise UsageError(f"duplicate embedding name {name!r}")
        registry[name] = path
    return registry


def _parse_top_k(spec: str) -> list:
    try:
        values = sorted({int(v) for v in spec.split(",")})
    except ValueError:
        raise UsageError(f"--top-k must be integers, got {spec!r}") from None
    if not values or values[0] < 1:
        raise UsageError("--top-k values must be >= 1")
    return values


def _load_tables(registry: dict, names) -> dict:
    tables = {}
    by_path = {}
    for name in sorted(set(names)):
        if name not in registry:
            raise DataError(
                f"word_embedding {name!r} is not in the --embeddings registry "
                f"(have: {', '.join(sorted(registry)) or 'none'})"
            )
        path = os.path.abspath(registry[name])
        if path not in by_path:  # names may alias one file; load it once
            by_path[path] = embeddings.load_embeddings(registry[name], name)
        tables[name] = by_path[path]
    return tables


def _embed_examples(examples, tables: dict) -> dict:
    seqs = corpus.to_token_seqs(examples)
    by_path = {}
    docs_by_name = {}
    for name, table in tables.items():
        key = id(table)
        if key not in by_path:
            by_path[key] = embeddings.lookup_docs(table, seqs)
        docs_by_name[name] = by_path[key]
    return docs_by_name


def _schedule_from_args(args) -> TrainSchedule:
    return TrainSchedule(max_epochs=args.max_epochs, patience=args.patience)


def _sniff_labeled(path) -> bool:
    """A dataset line has 3 tab-separated fields when labeled, 2 otherwise."""
    with open_text(path, "dataset") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            n = len(line.split("\t"))
            if n == 3:
                return True
            if n == 2:
                return False
            raise DataError(f"{path}: first data line has {n} fields, expected 2 or 3")
    return False


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_synth(args, outputs: _Outputs) -> int:
    outputs.claim_dir(args.out)
    paths = synth.write_synth_corpus(
        args.out, args.seed, n_train=args.train_size, n_test=args.test_size,
        dim=args.dim,
    )
    logger.info("synthetic corpus written: %s", ", ".join(sorted(paths.values())))
    return 0


def _load_search_inputs(args, space_names):
    examples = corpus.parse_dataset(args.train, labeled=True)
    registry = _parse_embeddings_flag(args.embeddings)
    tables = _load_tables(registry, space_names)
    docs_by_name = _embed_examples(examples, tables)
    dims = {t.dim for t in tables.values()}
    if len(dims) > 1:
        raise DataError(f"embedding tables disagree on dimension: {sorted(dims)}")
    info = {
        "train_file": os.path.basename(args.train),
        "train_sha256": file_sha256(args.train),
        "n_examples": len(examples),
        "embeddings": {
            name: {"file": os.path.basename(registry[name]),
                   "sha256": file_sha256(registry[name])}
            for name in sorted(tables)
        },
    }
    return examples, docs_by_name, info


def _cmd_search(args, outputs: _Outputs) -> int:
    overrides = read_json(args.config, "config") if args.config else {}
    space = search.SearchSpace.from_dict(overrides, restricted=not args.unrestricted_space)
    examples, docs_by_name, info = _load_search_inputs(
        args, space.domains["word_embedding"]
    )
    folds = corpus.stratified_kfold(examples, k=args.folds, seed=args.seed)
    outputs.claim_dir(args.out)
    outputs.claim_file(os.path.join(args.out, "leaderboard.csv"))
    outputs.claim_file(os.path.join(args.out, "manifest.json"))
    outputs.claim_dir(os.path.join(args.out, "trials"))
    search.run_search(
        [ex.id for ex in examples], [ex.label for ex in examples], docs_by_name,
        space, args.trials, folds, _schedule_from_args(args), args.seed, args.out,
        parallelism=args.parallelism, dataset_info=info,
    )
    logger.info("search complete: %s", os.path.join(args.out, "leaderboard.csv"))
    return 0


def _cmd_train(args, outputs: _Outputs) -> int:
    hp = HyperParams.from_dict(read_json(args.config, "config"))
    problems = validate_hyperparams(hp, restricted=not args.unrestricted_space)
    if problems:
        raise DataError("invalid hyperparameters: " + "; ".join(problems))

    examples = corpus.parse_dataset(args.train, labeled=True)
    registry = _parse_embeddings_flag(args.embeddings)
    tables = _load_tables(registry, [hp.word_embedding])
    docs = _embed_examples(examples, tables)[hp.word_embedding]
    labels = np.asarray([ex.label for ex in examples], dtype=np.int64)
    folds = corpus.stratified_kfold(examples, k=args.folds, seed=args.seed)

    out = outputs.claim_dir(args.out)
    fe = train_fold_ensemble(
        hp, docs, labels, folds, _schedule_from_args(args),
        Rng(args.seed).substream(0), trial_id=0, on_member=search.member_saver(out),
    )
    with atomic_write(os.path.join(out, "oof.tsv")) as fh:
        fh.write(search.format_oof_tsv([ex.id for ex in examples], labels,
                                       folds.fold_of, fe.oof_probs))
    result = {
        "cv_score": round(fe.cv_score, 6),
        "hp": hp.to_dict(),
        "seed": args.seed,
        "folds_k": args.folds,
        "n_examples": len(examples),
    }
    with atomic_write(os.path.join(out, "result.json")) as fh:
        fh.write(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"cv_score {fe.cv_score:.6f}")
    return 0


def _cmd_stack(args, outputs: _Outputs) -> int:
    k_values = _parse_top_k(args.top_k)
    records = [r for r in search.load_leaderboard(args.run) if r.ok]
    if not records:
        raise DataError(f"{args.run}: leaderboard has no successful trials")
    if max(k_values) > len(records):
        raise DataError(
            f"--top-k {max(k_values)} exceeds {len(records)} successful trials"
        )
    run_manifest = search.load_run_manifest(args.run)

    want_report = args.test is not None
    needed = records if want_report else records[:max(k_values)]
    loaded = [search.load_trial_ensemble(args.run, r, run_manifest["folds_k"])
              for r in needed]

    out = outputs.claim_dir(args.out)
    model_paths = {
        fe.trial_id: [
            os.path.join(args.run, "trials", str(fe.trial_id), f"fold{i}.scnn")
            for i in range(run_manifest["folds_k"])
        ]
        for fe in loaded
    }
    for k in k_values:
        se = stack_top_k(loaded, k)
        manifest_path = os.path.join(out, f"stack_top{k}.json")
        save_ensemble(se, manifest_path, model_paths,
                      fold_seed=run_manifest["fold_seed"],
                      space_descriptor=run_manifest["space_descriptor"])
        logger.info("wrote %s", manifest_path)

    if want_report:
        test_examples = corpus.parse_dataset(args.test, labeled=True)
        registry = _parse_embeddings_flag(args.embeddings)
        tables = _load_tables(registry, {fe.hp.word_embedding for fe in loaded})
        test_docs = _embed_examples(test_examples, tables)
        test_labels = [ex.label for ex in test_examples]
        report = search.top_k_report(loaded, k_values, test_docs, test_labels)
        with atomic_write(os.path.join(out, "report.csv")) as fh:
            fh.write(report)
        logger.info("wrote %s", os.path.join(out, "report.csv"))
    return 0


def _cmd_predict(args, outputs: _Outputs) -> int:
    registry = _parse_embeddings_flag(args.embeddings)
    se = load_ensemble(args.manifest)
    examples = corpus.parse_dataset(args.test, labeled=_sniff_labeled(args.test))
    tables = _load_tables(registry, {fe.hp.word_embedding for fe in se.ranked_members})
    docs_by_name = _embed_examples(examples, tables)
    probs = stacked_predict(se, docs_by_name)
    labels = metrics.argmax_labels(probs)
    lines = [
        f"{ex.id}\t{labels[i]}\t{probs[i, 0]:.6f}\t{probs[i, 1]:.6f}\t{probs[i, 2]:.6f}\n"
        for i, ex in enumerate(examples)
    ]
    outputs.claim_file(args.out)
    with atomic_write(args.out) as fh:
        fh.write("".join(lines))
    logger.info("wrote %d predictions to %s", len(lines), args.out)
    return 0


def _parse_predictions(path) -> dict:
    """Predictions TSV -> {id: predicted label}."""
    preds = {}
    with open_text(path, "predictions") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise DataError(f"{path}: expected 5 fields at line {lineno}")
            ex_id, label = parts[0], parts[1]
            if ex_id in preds:
                raise DataError(f"{path}: duplicate id {ex_id!r} at line {lineno}")
            try:
                label = int(label)
                [float(v) for v in parts[2:5]]
            except ValueError:
                raise DataError(f"{path}: malformed row at line {lineno}") from None
            if label not in corpus.CLASSES:
                raise DataError(f"{path}: label out of range at line {lineno}")
            preds[ex_id] = label
    return preds


def _cmd_evaluate(args, outputs: _Outputs) -> int:
    gold = corpus.parse_dataset(args.gold, labeled=True)
    preds = _parse_predictions(args.pred)
    gold_ids = {ex.id for ex in gold}
    missing = sorted(gold_ids - set(preds))
    extra = sorted(set(preds) - gold_ids)
    if missing or extra:
        raise DataError(
            f"id mismatch between gold and predictions: "
            f"{len(missing)} missing (e.g. {missing[:3]}), "
            f"{len(extra)} extra (e.g. {extra[:3]})"
        )
    cm = metrics.confusion([ex.label for ex in gold], [preds[ex.id] for ex in gold])
    report = metrics.MetricsReport.from_confusion(cm).to_json_text()
    if args.out:
        outputs.claim_file(args.out)
        with atomic_write(args.out) as fh:
            fh.write(report)
        logger.info("wrote %s", args.out)
    else:
        sys.stdout.write(report)
    return 0


def _cmd_gradcheck(args, outputs: _Outputs) -> int:
    err = run_gradcheck(args.seed, cases=args.cases, step=args.step)
    print(f"max relative gradient error: {err:.6e}")
    if not err <= TOLERANCE:  # a NaN error fails
        print(f"FAIL: exceeds tolerance {TOLERANCE:.0e}", file=sys.stderr)
        return 3
    return 0


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _bounded(kind, low, strict=False):
    """An argparse type: a ``kind`` number above ``low`` (``strict``) or at
    least ``low``. Any other value is a usage error naming the flag."""
    def parse(text):
        value = kind(text)
        if not (value > low if strict else value >= low):  # NaN fails too
            raise argparse.ArgumentTypeError(f"must be {'>' if strict else '>='} {low}")
        return value
    parse.__name__ = kind.__name__  # argparse says "invalid int value: 'x'"
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="scnn", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_schedule(p):
        p.add_argument("--max-epochs", type=_bounded(int, 1), default=30)
        p.add_argument("--patience", type=_bounded(int, 1), default=2)

    p = sub.add_parser("synth", help="write the deterministic synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--train-size", type=_bounded(int, 0), default=600)
    p.add_argument("--test-size", type=_bounded(int, 0), default=300)
    p.add_argument("--dim", type=_bounded(int, 4), default=16)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("search", help="random hyperparameter search")
    p.add_argument("--train", required=True)
    p.add_argument("--embeddings", required=True, metavar="name=path[,name=path]")
    p.add_argument("--trials", type=_bounded(int, 1), required=True)
    p.add_argument("--folds", type=_bounded(int, 2), default=5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON file overriding search-space domains")
    p.add_argument("--unrestricted-space", action="store_true",
                   help="allow domains outside the standard search space")
    p.add_argument("--parallelism", type=_bounded(int, 1), default=1,
                   help="processes that train folds, this one included "
                        "(capped at trials x folds and the usable CPUs)")
    add_schedule(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("train", help="train one fold ensemble from an hp config")
    p.add_argument("--train", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--config", required=True, help="JSON with the 8 hp fields")
    p.add_argument("--folds", type=_bounded(int, 2), default=5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--unrestricted-space", action="store_true")
    add_schedule(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("stack", help="build top-K stacked ensemble manifests")
    p.add_argument("--run", required=True, help="search run directory")
    p.add_argument("--top-k", required=True, metavar="K[,K...]")
    p.add_argument("--out", required=True)
    p.add_argument("--test", help="labeled TSV; adds a per-K report.csv")
    p.add_argument("--embeddings", help="required with --test")
    p.set_defaults(func=_cmd_stack)

    p = sub.add_parser("predict", help="predict with a stacked ensemble manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--test", required=True, help="input TSV (labeled or unlabeled)")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against gold labels")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", help="metrics JSON path (default: stdout)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient self-check")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cases", type=_bounded(int, 1), default=25)
    p.add_argument("--step", type=_bounded(float, 0.0, strict=True), default=1e-5)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(message)s")
    parser = _build_parser()
    outputs = _Outputs()
    try:
        args = parser.parse_args(argv)
        if args.command == "stack" and args.test and not args.embeddings:
            raise UsageError("stack --test requires --embeddings")
        return args.func(args, outputs)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        outputs.discard_all()
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        outputs.discard_all()
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        outputs.discard_all()
        return 3
    except ScnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        outputs.discard_all()
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        outputs.discard_all()
        return 4


if __name__ == "__main__":
    sys.exit(main())
