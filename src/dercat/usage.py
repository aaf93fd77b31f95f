"""The argparse half of the command line: --help, usage errors, and every
command line that cli.parse_plain does not take (abbreviated option names,
`--name=value`, `--`, values that start with "-").

cli.main imports this module only when parse_plain returns None, so a plain
command line never loads argparse, gettext or locale.  The parser is built
from the verb table that cli passes in, so the options are declared once.
This module never imports dercat.cli: under `python -m dercat.cli` that
import would compile cli.py a second time, as dercat.cli beside __main__.
"""

import argparse
import sys


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that text it cannot write to stdout raises
    the OSError, for main to report: argparse drops it, and `--help >
    /dev/full` on unbuffered stdout exited 0.  A failed write to stderr,
    where argparse reports usage errors, still passes: nothing is left to
    report it on."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser(verbs, argv):
    """The parser of the cli.Verb rows in verbs, with only the subparser of
    the verb argv starts with, if any (no argument, --help, a typo: all of
    them); the usage line names every verb either way, so usage and error
    text are the full parser's."""
    words = list(dict.fromkeys(v.path[0] for v in verbs))
    verb = argv[0] if argv and argv[0] in words else None
    p = _Parser(prog="dercat", description="Exact derived-category computations for Dynkin quivers")
    sub = p.add_subparsers(dest="cmd", required=True,
                           metavar="{%s}" % ",".join(words) if verb else None)
    groups = {}
    for v in verbs:
        word = v.path[0]
        if verb not in (None, word):
            continue
        # a help keyword, even None, would list the verb under `dercat --help`
        kwargs = {"help": v.help} if v.help else {}
        if len(v.path) == 1:
            sp = sub.add_parser(word, **kwargs)
        else:
            if word not in groups:
                groups[word] = sub.add_parser(word, **kwargs).add_subparsers(dest="sub",
                                                                              required=True)
            sp = groups[word].add_parser(v.path[1])
        for name, kw in v.options:
            sp.add_argument(name, **kw)
        if v.exclusive:
            group = sp.add_mutually_exclusive_group()
            for name, kw in v.exclusive:
                group.add_argument(name, **kw)
        sp.set_defaults(fn=v.fn)
        if v.objects:
            sp.set_defaults(objects_needed=(sp.prog, v.objects))
    return p
