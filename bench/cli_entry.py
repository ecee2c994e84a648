"""Run one drfrontier subcommand in this fresh interpreter.

    python3 bench/cli_entry.py [SPANS_FILE OP_ID PARENT_SPAN] -- ARGV...

Without the three trace arguments it does what the `drfrontier` console
script does.  With them it times `import drfrontier.cli`, wraps for this
process only the public functions the CLI reaches through module attributes
(see tracing.TARGETS), calls drfrontier.cli.main(ARGV) and writes its spans
to SPANS_FILE on exit.  A process killed at its deadline writes nothing.
"""

import json
import sys


def main() -> int:
    sep = sys.argv.index("--")
    trace_args, argv = sys.argv[1:sep], sys.argv[sep + 1 :]
    if not trace_args:
        import drfrontier.cli

        return drfrontier.cli.main(argv)

    import tracing

    spans_file, op_id, parent = trace_args
    tracer = tracing.Tracer(prefix=f"{op_id}.", root_parent=parent, op_id=op_id)
    try:
        with tracer.span("cli.import"):
            import drfrontier.cli
        tracing.instrument(tracer)
        with tracer.span("cli.main"):
            return drfrontier.cli.main(argv)
    finally:
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
