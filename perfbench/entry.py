"""One round: run ``gatednli <argv>`` through ``gatednli.cli.main`` in this
process and write the phase boundaries it crossed to a JSON file.

Usage: python3 entry.py SRC_DIR MARKS_JSON TRACE_JSONL|- FINAL_CKPT|- [--setup-only] -- gatednli-args...

Boundaries are CLOCK_MONOTONIC readings, comparable with the parent's. The
first call of ``Model.forward`` marks the first pair processed; the wrapper
then removes itself, so an untraced round pays for one extra call. With a
trace path, every function in ``tracer.TRACED`` is wrapped as well. With a
final-checkpoint path, the model as it stands when ``train()`` returns is
saved there too (``gatednli train`` itself keeps only the best-dev epoch);
that happens after the main phase has ended. With ``--setup-only``, the
round ends at its first pair, having measured only its set-up.
"""

import json
import sys
import time


class SetUpDone(BaseException):
    """Ends a set-up-only round at its first pair; the program's error
    handlers catch ``Exception`` and so let it through."""


def main() -> int:
    src, marks_path, trace_path, final_path, *rest = sys.argv[1:]
    setup_only = rest[:1] == ["--setup-only"]
    sep, *argv = rest[1:] if setup_only else rest
    if sep != "--":
        raise SystemExit("usage: entry.py SRC MARKS TRACE FINAL [--setup-only] -- ARGS...")
    sys.path.insert(0, src)
    from gatednli import cli, model, train

    marks = {"start": time.monotonic()}
    tracer = None
    if trace_path != "-":
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    forward = model.Model.__dict__.get("forward")
    if forward is not None:
        def first_forward(*args, **kwargs):
            marks.setdefault("first_pair", time.monotonic())
            if setup_only:
                raise SetUpDone
            model.Model.forward = forward
            return forward(*args, **kwargs)

        model.Model.forward = first_forward

    loop = train.train

    def timed_train(net, vocab, *args, **kwargs):
        marks["train_enter"] = time.monotonic()
        try:
            result = loop(net, vocab, *args, **kwargs)
        finally:
            marks["train_exit"] = time.monotonic()
        if final_path != "-":
            train.Checkpoint.from_model(result.model, vocab).save(final_path)
        return result

    train.train = timed_train
    try:
        code = cli.main(argv)
    except SetUpDone:
        code = 0
    marks["end"] = time.monotonic()
    out = {"code": code, "marks": marks}
    if tracer is not None:
        tracer.write(trace_path)
        first = marks.get("first_pair", marks.get("train_enter", marks["start"]))
        out["trace"] = {"totals": tracer.totals, "absent": tracer.absent,
                        "tape": tracer.tape_total(),
                        "layer_s": tracer.self_seconds(first, marks.get("train_exit", marks["end"]))}
    with open(marks_path, "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
