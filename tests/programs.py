"""Program texts shared across test modules.

Kept inline rather than read from corpus/ so unit tests stay hermetic;
the texts mirror the corpus files where names coincide.
"""

FIB = """\
fib(A,B) :- A>=0, A=<1, B=1.
fib(A,B) :- A>1, A1=A-1, A2=A-2, B=B1+B2, fib(A1,B1), fib(A2,B2).
false :- A>5, B<A, fib(A,B).
"""

# a model of FIB: result at least one, never below the argument
FIB_MODEL = """\
fib(A,B) :- A>=0, B>=1, B-A>=0.
"""

UNSAFE_SIMPLE = """\
p(X) :- X=1.
false :- X>0, p(X).
"""

SPLIT_RANGE = """\
p(X) :- X=0.
p(X) :- X=3.
p(Y) :- Y=X, p(X).
false :- X>=1, X=<2, p(X).
"""

DECREMENT = """\
q(X) :- X=<0.
q(Y) :- Y=X-1, q(X).
false :- X>=5, q(X).
"""

COUNT_UP = """\
n(X) :- X=0.
n(Y) :- Y=X+1, n(X).
false :- X<0, n(X).
"""

UNSAFE_LOOP = """\
i(X) :- X=0.
i(Y) :- Y=X+1, i(X).
false :- X=3, i(X).
"""

# Gopan and Reps' loop: y climbs while x =< 50, then falls, and never
# goes below 0 before x reaches 102.  Over the integers, with strict
# rows read as non-strict ones (--strict-to-nonstrict).
GOPAN_REPS = """\
p(X,Y) :- X=0, Y=0.
p(X1,Y1) :- X=<50, Y1=Y+1, Y1>=0, X1=X+1, p(X,Y).
p(X1,Y1) :- X>=51, Y1=Y-1, Y1>=0, X1=X+1, p(X,Y).
false :- X>=51, Y1=Y-1, Y1<0, X=<101, p(X,Y).
false :- X=<50, Y1=Y+1, Y1<0, p(X,Y).
"""

# the same loop, unsafe: at x = 102, y - 1 is negative
GOPAN_REPS_UNSAFE = GOPAN_REPS.replace("X=<101", "X=<102")
