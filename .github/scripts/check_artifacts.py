"""Re-read every artifact in the given directories with readers independent of the workspace.

JSON: each line of every `*_telemetry.jsonl` and `ticks.jsonl`, and every
`incident*.json` dump, must load with Python's json module.

Prometheus text: every `*.prom` file (including `ops.prom`) must hold only
`# TYPE`/`# HELP` comments and `name{k="v",...} value` sample lines; each
family has exactly one `# TYPE` line, before its first sample; and no
series (name plus label set) repeats.

The artifacts are written by `gstm_core::json` and `gstm_core::prom`; an
independent reader keeps a writer bug from hiding behind the matching
in-tree reader.

Usage: python3 .github/scripts/check_artifacts.py DIR [DIR ...]
"""
import glob
import json
import os
import re
import sys

NAME = r'[a-zA-Z_:][a-zA-Z0-9_:]*'
LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="[^"\\\n]*"'
VALUE = r'[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?|[-+]?Inf|NaN'
SAMPLE = re.compile(rf'^({NAME})(?:\{{({LABEL}(?:,{LABEL})*)\}})? ({VALUE})$')
TYPE = re.compile(rf'^# TYPE ({NAME}) (counter|gauge|histogram|summary|untyped)$')
HISTOGRAM_SUFFIXES = ('_bucket', '_sum', '_count')


def family_of(name, types):
    """The declared family a sample name belongs to, or None."""
    if name in types:
        return name
    for suffix in HISTOGRAM_SUFFIXES:
        base = name[:-len(suffix)]
        if name.endswith(suffix) and types.get(base) == 'histogram':
            return base
    return None


def check_prom(path):
    """Check one exposition; returns its sample count."""
    types, series = {}, set()
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            line = line.rstrip('\n')
            where = f'{path}:{n}'
            if not line.strip() or line.startswith('# HELP '):
                continue
            if line.startswith('#'):
                m = TYPE.match(line)
                if not m:
                    sys.exit(f'{where}: malformed comment: {line}')
                name, kind = m.groups()
                if name in types:
                    sys.exit(f'{where}: second # TYPE line for {name}')
                # A sample before this line already failed the check below.
                types[name] = kind
                continue
            m = SAMPLE.match(line)
            if not m:
                sys.exit(f'{where}: malformed sample: {line}')
            name, labels, _ = m.groups()
            if family_of(name, types) is None:
                sys.exit(f'{where}: {name} has no # TYPE line before it')
            key = (name, tuple(sorted(re.findall(LABEL, labels or ''))))
            if key in series:
                sys.exit(f'{where}: repeated series: {line}')
            series.add(key)
    return len(series)


lines = docs = proms = samples = 0
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
    for f in glob.glob(os.path.join(d, '*.prom')):
        samples += check_prom(f)
        proms += 1
assert lines > 0, 'no JSONL artifacts found'
assert proms > 0, 'no Prometheus expositions found'
print(lines, 'JSONL line(s) and', docs, 'incident dump(s) parse;',
      proms, 'exposition(s) with', samples, 'series are well-formed')
