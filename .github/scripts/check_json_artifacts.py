"""Re-read every JSON artifact in the given directories with Python's json module.

Checks each line of every `*_telemetry.jsonl` and `ticks.jsonl`, and every
`incident*.json` dump. The artifacts are written by `gstm_core::json`; an
independent parser keeps a writer bug from hiding behind the matching
in-tree reader.

Usage: python3 .github/scripts/check_json_artifacts.py DIR [DIR ...]
"""
import glob
import json
import os
import sys

lines = docs = 0
for d in sys.argv[1:]:
    for f in glob.glob(os.path.join(d, '*_telemetry.jsonl')) + glob.glob(os.path.join(d, 'ticks.jsonl')):
        with open(f) as fh:
            for n, line in enumerate(fh, 1):
                if line.strip():
                    try:
                        json.loads(line)
                    except ValueError as e:
                        sys.exit(f'{f}:{n}: {e}')
                    lines += 1
    for f in glob.glob(os.path.join(d, 'incident*.json')):
        with open(f) as fh:
            json.load(fh)
        docs += 1
assert lines > 0, 'no JSONL artifacts found'
print(lines, 'JSONL line(s) and', docs, 'incident dump(s) parse')
