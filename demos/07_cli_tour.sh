#!/bin/sh
# End-to-end tour of the command-line interface and the file format.
# Exit codes: 0 pass, 1 check failed, 2 input error, 3 budget exceeded,
# 4 internal error.
set -e
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "== builtin structures =="
rbhopf builtin-list --report machine

echo
echo "== verify fixtures =="
rbhopf verify builtin:sweedler4 --checks hopf --report machine
rbhopf verify builtin:example54 --checks bialgebra --report machine

echo
echo "== smash coproduct and both projections over Sweedler's Hopf algebra =="
rbhopf construct smash --hopf builtin:sweedler4 --yd adjoint \
    -o "$workdir/smash.rbh" --report machine
rbhopf construct projection-right --hopf builtin:sweedler4 --yd adjoint \
    -o "$workdir/pr.rbh" --report machine
rbhopf construct projection-left --hopf builtin:sweedler4 --yd adjoint \
    -o "$workdir/pl.rbh" --report machine

echo
echo "== the projections are weight -1 Rota-Baxter operators =="
rbhopf rb-check "$workdir/smash.rbh" --side coalgebra \
    --operator "$workdir/pr.rbh" --weight=-1 --idempotent --report machine

echo
echo "== derive a pre-Lie comultiplication and verify it =="
rbhopf construct prelie --structure "$workdir/smash.rbh" \
    --operator "$workdir/pl.rbh" --weight=-1 -o "$workdir/prelie.rbh" \
    --report machine
rbhopf verify "$workdir/prelie.rbh" --report machine

echo
echo "== convolution projection on the tensor square of k[C2] =="
rbhopf construct pi-operator --hopf builtin:group:C2 -o "$workdir/pi.rbh" \
    --structure-out "$workdir/hh.rbh" --report machine
rbhopf rb-check "$workdir/hh.rbh" --side bialgebra \
    --operator "$workdir/pi.rbh" --operator "$workdir/pi.rbh" \
    --weight=-1 --weight=-1 --report machine

echo
echo "== exhaustive search over F_2 =="
rbhopf search builtin:grouplike:2 --field Fp:2 --side coalgebra --weight 1 \
    --out-dir "$workdir/ops" --report machine

echo
echo "== a found operator file =="
cat "$workdir/ops/op_0001.rbh"
