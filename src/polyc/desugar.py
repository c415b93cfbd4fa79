"""Kept only because bench/ imports it: the parser lowers all sugar."""


def desugar(prog):
    return prog
