"""Batch command-line front end.

Subcommands: synth, search, train, stack, predict, evaluate, gradcheck.
Every randomized command requires an explicit --seed; re-running any command
with identical inputs and seed produces byte-identical artifacts.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure,
4 internal error (any other exception, such as workers.WorkerDied for a
worker process that died; it prints ``internal error: <type>: <message>``),
130 interrupted (Ctrl-C; it prints ``interrupted``), 143 terminated
(SIGTERM; it prints ``terminated``). Partial outputs are removed when a
command fails, is interrupted or is terminated. When several members of a
stack fail, predict and stack --test report the first in stack order
(rank, then fold), whatever the process count. An --out that exists as
the wrong kind is a data error (2) before any work: for synth, search,
train and stack anything but a directory, for predict and evaluate anything
but a regular file (a symlink, a FIFO, a directory).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import logging
import os
import shutil
import signal
import stat
import sys

import numpy as np

from . import corpus, embeddings, metrics
from .ensemble import hash_members, load_ensemble, save_ensemble, stack_top_k, stacked_predict
from .errors import DataError, NumericError
from .fileio import atomic_write, file_sha256, read_json, read_tsv
from .model import HyperParams, SharedBuffers, TrainSchedule, validate_hyperparams

# search, synth, gradcheck and workers are imported by the commands that use
# them, so that predict and evaluate do not load them.

logger = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Terminated(BaseException):
    """Raised by main's SIGTERM handler; like KeyboardInterrupt, no
    ``except Exception`` stops it on its way out."""


def _raise_terminated(signum, frame):
    raise _Terminated


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class _Outputs:
    """Tracks artifacts created by the running command so a failure can
    remove them instead of leaving partial outputs behind."""

    def __init__(self):
        self.created = []

    def claim_dir(self, path, files=()) -> str:
        """Claim the directory ``path`` and the ``files`` (names) the command
        writes in it, which a failure removes even if ``path`` existed."""
        if not os.path.exists(path):
            os.makedirs(path)
            self.created.append(path)
        for name in files:
            self.claim_file(os.path.join(path, name))
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


# the commands whose --out is a file; every other --out is a directory
_FILE_OUTPUTS = ("predict", "evaluate")


def _check_out(args) -> None:
    """DataError naming ``args.out`` if it exists as the wrong kind for the
    command, or if a file ``--out`` has no directory to go in, so the command
    writes nothing rather than fail halfway or replace what is there."""
    path = getattr(args, "out", None)
    if path is None:
        return
    if args.command in _FILE_OUTPUTS:
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise DataError(f"--out {path}: {parent} is not a directory")
        if os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode):
            raise DataError(f"--out {path} exists and is not a regular file")
    elif os.path.lexists(path) and not os.path.isdir(path):
        raise DataError(f"--out {path} exists and is not a directory")


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


def _embed(examples, registry: dict, names) -> dict:
    """name -> the embeddings.Documents of ``examples`` embedded with the
    ``registry`` table of each of ``names``. The examples are tokenized once,
    into word ids; names that alias one file share one load of it and one
    embedding."""
    tokens = corpus.to_token_seqs(examples)
    by_path = {}
    docs_by_name = {}
    for name in sorted(set(names)):
        if name not in registry:
            raise DataError(
                f"word_embedding {name!r} is not in the --embeddings registry "
                f"(have: {', '.join(sorted(registry)) or 'none'})"
            )
        path = os.path.abspath(registry[name])
        if path not in by_path:
            table = embeddings.load_embeddings(registry[name], name)
            by_path[path] = embeddings.lookup_docs(table, tokens)
        docs_by_name[name] = by_path[path]
    return docs_by_name


def _schedule_from_args(args) -> TrainSchedule:
    return TrainSchedule(max_epochs=args.max_epochs, patience=args.patience)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_synth(args, outputs: _Outputs) -> int:
    from . import synth
    outputs.claim_dir(args.out, map(os.path.basename, synth.corpus_paths(args.out).values()))
    paths = synth.write_synth_corpus(
        args.out, args.seed, n_train=args.train_size, n_test=args.test_size,
        dim=args.dim,
    )
    logger.info("synthetic corpus written: %s", ", ".join(sorted(paths.values())))
    return 0


def _read_config(path, parse):
    """``parse`` of the JSON document in the config file ``path``; a
    DataError it raises is prefixed with the path."""
    doc = read_json(path, "config")
    try:
        return parse(doc)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _read_labeled(path) -> list:
    """The examples of the labeled file ``path``, which trains or scores; a
    file with none, or without labels, is a DataError naming it."""
    examples = corpus.parse_dataset(path)
    if not examples:
        raise DataError(f"{path}: no examples")
    if examples[0].label is None:
        raise DataError(f"{path}: no labels (its lines are id<TAB>text, "
                        f"not id<TAB>label<TAB>text)")
    return examples


def _read_train(args, registry: dict, names):
    """(examples, folds, name -> documents) of the labeled training file
    ``args.train``, split into ``args.folds`` folds and embedded with the
    ``registry`` table of each of ``names``. A file with no examples, or a
    class with fewer than k, is a DataError naming the file."""
    examples = _read_labeled(args.train)
    try:
        folds = corpus.stratified_kfold([ex.label for ex in examples], k=args.folds,
                                        seed=args.seed)
    except DataError as exc:
        raise DataError(f"{args.train}: {exc}") from None
    docs_by_name = _embed(examples, registry, names)
    dims = {docs.dim for docs in docs_by_name.values()}
    if len(dims) > 1:
        raise DataError(f"embedding tables disagree on dimension: {sorted(dims)}")
    return examples, folds, docs_by_name


def _cmd_search(args, outputs: _Outputs) -> int:
    from . import search
    restricted = not args.unrestricted_space
    space = (_read_config(args.config, lambda doc: search.SearchSpace.from_dict(doc, restricted))
             if args.config else search.SearchSpace.default())
    registry = _parse_embeddings_flag(args.embeddings)
    examples, folds, docs_by_name = _read_train(args, registry, space.domains["word_embedding"])
    info = {
        "train_file": os.path.basename(args.train),
        "train_sha256": file_sha256(args.train),
        "n_examples": len(examples),
        "embeddings": {
            name: {"file": os.path.basename(registry[name]),
                   "sha256": file_sha256(registry[name])}
            for name in sorted(docs_by_name)
        },
    }
    outputs.claim_dir(args.out, ["leaderboard.csv", "manifest.json"])
    outputs.claim_dir(os.path.join(args.out, "trials"), map(str, range(args.trials)))
    search.run_search(
        [ex.id for ex in examples], [ex.label for ex in examples], docs_by_name,
        space, args.trials, folds, _schedule_from_args(args), args.seed, args.out,
        parallelism=args.parallelism, dataset_info=info,
    )
    logger.info("search complete: %s", os.path.join(args.out, "leaderboard.csv"))
    return 0


def _cmd_train(args, outputs: _Outputs) -> int:
    from . import search, workers
    hp = _read_config(args.config, HyperParams.from_dict)
    problems = validate_hyperparams(hp, restricted=not args.unrestricted_space)
    if problems:
        raise DataError(f"{args.config}: invalid hyperparameters: " + "; ".join(problems))

    examples, folds, docs_by_name = _read_train(
        args, _parse_embeddings_flag(args.embeddings), [hp.word_embedding])
    out = outputs.claim_dir(args.out, [f"fold{fold}.scnn" for fold in range(folds.k)]
                            + ["oof.tsv", "result.json"])
    inputs = search.TrialInputs(
        ids=[ex.id for ex in examples],
        labels=np.asarray([ex.label for ex in examples], dtype=np.int64),
        docs_by_name=docs_by_name, folds=folds, sched=_schedule_from_args(args),
        seed=args.seed, out_dir=out,
    )
    # trial 0 of a search with this config and seed, in --out itself, on the
    # runner search's units run on; each process has its own copy of buffers
    buffers = SharedBuffers()
    rows = workers.map_on_processes(
        lambda fold: search.train_unit(inputs, 0, hp, fold, buffers, out), range(folds.k))
    cv_score = search.write_oof(inputs, out, rows)
    result = {
        "cv_score": round(cv_score, 6),
        "hp": hp.to_dict(),
        "seed": args.seed,
        "folds_k": args.folds,
        "n_examples": len(examples),
    }
    with atomic_write(os.path.join(out, "result.json")) as fh:
        fh.write(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"cv_score {cv_score:.6f}")
    return 0


def _cmd_stack(args, outputs: _Outputs) -> int:
    from . import search
    k_values = _parse_top_k(args.top_k)
    run_manifest, records = search.load_run(args.run)
    if not records:
        raise DataError(f"{args.run}: leaderboard has no successful trials")
    if max(k_values) > len(records):
        raise DataError(
            f"--top-k {max(k_values)} exceeds {len(records)} successful trials"
        )

    want_report = args.test is not None
    if want_report:
        test_examples = _read_labeled(args.test)
    loaded = [search.load_trial_ensemble(args.run, r, run_manifest["folds_k"])
              for r in (records if want_report else records[:max(k_values)])]

    out = outputs.claim_dir(args.out, [f"stack_top{k}.json" for k in k_values]
                            + ["report.csv"] * want_report)
    top = hash_members(stack_top_k(loaded, max(k_values)))  # each member file hashed once
    for k in k_values:
        manifest_path = os.path.join(out, f"stack_top{k}.json")
        save_ensemble(top[:k], manifest_path,
                      fold_seed=run_manifest["fold_seed"],
                      space_descriptor=run_manifest["space_descriptor"])
        logger.info("wrote %s", manifest_path)

    if want_report:
        test_docs = _embed(test_examples, _parse_embeddings_flag(args.embeddings),
                           [trial.hp.word_embedding for trial in loaded])
        test_labels = [ex.label for ex in test_examples]
        report = search.top_k_report(loaded, k_values, test_docs, test_labels)
        with atomic_write(os.path.join(out, "report.csv")) as fh:
            fh.write(report)
        logger.info("wrote %s", os.path.join(out, "report.csv"))
    return 0


def _openblas_threads():
    """(get, set) of numpy's OpenBLAS thread count, or None where numpy's
    build does not export them under these names."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get, set_count = (lib.scipy_openblas_get_num_threads64_,
                          lib.scipy_openblas_set_num_threads64_)
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_count.argtypes, set_count.restype = [ctypes.c_int], None
    return get, set_count


@contextlib.contextmanager
def _one_blas_thread():
    """BLAS on one thread inside the block, whatever the environment says,
    and the caller's count again after it, so one process can run commands
    in turn. A no-op where the thread count cannot be set."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_count = threads
    before = get()
    set_count(1)
    try:
        yield
    finally:
        set_count(before)


def _cmd_predict(args, outputs: _Outputs) -> int:
    registry = _parse_embeddings_flag(args.embeddings)
    stack = load_ensemble(args.manifest)
    examples = corpus.parse_dataset(args.test)
    docs_by_name = _embed(examples, registry, [trial.hp.word_embedding for trial in stack])
    try:  # a member's error names the manifest that lists it
        probs = stacked_predict(stack, docs_by_name)
    except DataError as exc:
        raise DataError(f"{args.manifest}: {exc}") from None
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
    """Predictions TSV -> {id: predicted label}. Each of p1..p3 must be a
    number in [0, 1], and the label's no lower than the other two (6-decimal
    rounding can make ties)."""
    preds = {}
    for lineno, (ex_id, label, *probs) in read_tsv(path, "predictions", (5,)):
        if ex_id in preds:
            raise DataError(f"{path}: duplicate id {ex_id!r} at line {lineno}")
        try:
            label = int(label)
            probs = [float(v) for v in probs]
        except ValueError:
            raise DataError(f"{path}: malformed row at line {lineno}") from None
        if label not in corpus.CLASSES:
            raise DataError(f"{path}: label out of range at line {lineno}")
        if not all(0 <= p <= 1 for p in probs):  # NaN fails too
            raise DataError(f"{path}: probability outside [0, 1] at line {lineno}")
        if probs[label - 1] < max(probs):
            raise DataError(f"{path}: label {label} is not the most probable class "
                            f"at line {lineno}")
        preds[ex_id] = label
    return preds


def _cmd_evaluate(args, outputs: _Outputs) -> int:
    gold = _read_labeled(args.gold)
    preds = _parse_predictions(args.pred)
    gold_ids = {ex.id for ex in gold}
    missing = sorted(gold_ids - set(preds))
    extra = sorted(set(preds) - gold_ids)
    if missing or extra:
        raise DataError(
            f"{args.pred}: ids do not match those of {args.gold}: "
            f"{len(missing)} missing (e.g. {missing[:3]}), "
            f"{len(extra)} extra (e.g. {extra[:3]})"
        )
    cm = metrics.confusion([ex.label for ex in gold], [preds[ex.id] for ex in gold])
    report = metrics.report_json(cm)
    if args.out:
        outputs.claim_file(args.out)
        with atomic_write(args.out) as fh:
            fh.write(report)
        logger.info("wrote %s", args.out)
    else:
        sys.stdout.write(report)
    return 0


def _cmd_gradcheck(args, outputs: _Outputs) -> int:
    from . import gradcheck
    err = gradcheck.run_gradcheck(args.seed, cases=args.cases, step=args.step)
    print(f"max relative gradient error: {err:.6e}")
    if not err <= gradcheck.TOLERANCE:  # a NaN error fails
        print(f"FAIL: exceeds tolerance {gradcheck.TOLERANCE:.0e}", file=sys.stderr)
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
    p.add_argument("--parallelism", type=_bounded(int, 1),
                   help="processes that train folds, this one included (default: "
                        "the usable CPUs; capped at trials x folds and the usable CPUs)")
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
    previous = signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        args = parser.parse_args(argv)
        if args.command == "stack" and args.test and not args.embeddings:
            raise UsageError("stack --test requires --embeddings")
        _check_out(args)
        # One BLAS thread computes the same bits whatever OPENBLAS_NUM_THREADS
        # says, and every worker forked from this process (workers.run_plan:
        # fold units, predict's members, stack's member hashes) inherits it.
        # The other cores are left to those workers, the one way scnn runs
        # work in parallel.
        with _one_blas_thread():
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
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        outputs.discard_all()
        return 4
    except KeyboardInterrupt:  # not an Exception
        print("interrupted", file=sys.stderr)
        outputs.discard_all()
        return 130
    except _Terminated:
        print("terminated", file=sys.stderr)
        outputs.discard_all()
        return 143
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
