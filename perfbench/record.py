"""Record the expected outputs that the enumeration and cli checks compare to.

    PYTHONPATH=src python3 perfbench/record.py

Writes perfbench/expected.json from the library as it is now:
- enumeration: digest of each pool matrix's classify report, keyed by a
  digest of the matrix text;
- perron: the exact perron_r value of each pool matrix and order r;
- cli: exit code and stdout digest of every fixed command line, one entry
  per input file (keyed by a digest of its text, one outcome per command)
  and one per gen line.

Rerun it only when a change to zmx is meant to alter one of these outputs,
and say so in the change.
"""

import json
import os
import sys
import tempfile
from fractions import Fraction

import workloads as w
from zmx.cli import main
from zmx.matrix import Matrix
from zmx.zclass import classify, perron_r


def record() -> dict:
    pool = w.enum_pool()
    reports, perron = {}, {}
    for s, variants in pool.items():
        for rows in variants:
            key = w.digest(w.matrix_text(rows))
            if s < len(w.ENUM_SLOTS):
                reports[key] = w.digest(w.report_text(classify(Matrix(rows))))
            else:
                what, _, *params = w.ENUM_TAIL[s - len(w.ENUM_SLOTS)]
                if what == "perron":
                    r, digits = params
                    tol = Fraction(1, 10**digits)
                    perron[w.perron_key(w.matrix_text(rows), r, digits)] = str(perron_r(Matrix(rows), r, tol))
    cli = {}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(w.HERE)) as tmp:
        path = os.path.join(tmp, "input.txt")
        for kind, n in w.CLI_SLOTS:
            for v in range(w.CLI_VARIANTS):
                text = w.cli_text(kind, n, v)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                cli[w.digest(text)] = " ".join(
                    w.cli_outcome(*w.run_cli(main, list(words) + [path])) for words in w.cli_commands(kind, n)
                )
    for g in range(len(w.CLI_GEN)):
        for v in range(w.CLI_VARIANTS):
            argv = w.cli_gen_argv(g, v)
            cli[w.digest(" ".join(argv))] = w.cli_outcome(*w.run_cli(main, argv))
    return {"enumeration": reports, "perron": perron, "cli": cli}


if __name__ == "__main__":
    data = record()
    with open(w.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {w.EXPECTED_PATH}: " + ", ".join(f"{k} {len(v)}" for k, v in data.items()), file=sys.stderr)
