"""Small graphs the test modules share, built the same way everywhere."""

from kvcut.graph import Graph


def path3():
    return Graph(3, [(0, 1), (1, 2)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def hypercube(d):
    n = 1 << d
    return Graph(n, [(v, v | 1 << b) for v in range(n) for b in range(d) if not v >> b & 1])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)
