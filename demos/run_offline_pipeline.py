"""Run every pipeline stage offline and show the resulting eval table.

Uses the packaged ten-document toy corpus with a scripted chat backend and
the hashing embedder, so no network access or credentials are needed. The
same artifacts can be produced stage by stage with the ``adrcm`` CLI; see
the README for the equivalent command sequence.
"""

import argparse
import json

from adrcm.cli import describe_run, run_e2e_mock


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="demo_run",
                        help="directory for the generated artifacts")
    parser.add_argument("--rag", default="cui", choices=("cui", "chunks", "off"),
                        help="retrieval mode used at inference time")
    args = parser.parse_args()

    paths = run_e2e_mock(args.workdir, rag_mode=args.rag)
    print(describe_run(paths))
    print()

    with open(paths["synth_report.json"], encoding="utf-8") as fh:
        synth = json.load(fh)
    print(f"synthesis: {synth['accepted']} accepted, {synth['discarded']} discarded "
          f"after {synth['summary_calls']} summary calls")
    with open(paths["finetune_meta.json"], encoding="utf-8") as fh:
        meta = json.load(fh)
    counts = meta["row_counts"]
    print(f"fine-tune rows: {counts['total']} "
          f"({counts['original']} original / {counts['synthetic']} synthetic / "
          f"{counts['negative']} negative), preset {meta['preset']}")

    print("\nrun it again with the same --workdir: every file is byte-identical,")
    print("and interrupted runs resume from the on-disk reply cache.")


if __name__ == "__main__":
    main()
