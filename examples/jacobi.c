/* Jacobi-style smoothing over a shared vector, with a convergence-
   style reduction each sweep.  The same kernel as the quickstart
   example, as a standalone SlipC file for the CLI:

       python -m repro run examples/jacobi.c --mode slipstream
       python -m repro run examples/jacobi.c --mode slipstream \
           --profile jacobi.folded
*/
double a[8192];
double b[8192];
double delta;
int i;

void main() {
    #pragma omp parallel
    {
        int it;
        #pragma omp for
        for (i = 0; i < 8192; i = i + 1) a[i] = (i % 17) * 0.25;
        for (it = 0; it < 4; it = it + 1) {
            #pragma omp for
            for (i = 1; i < 8191; i = i + 1)
                b[i] = (a[i-1] + a[i] + a[i+1]) / 3.0;
            #pragma omp for reduction(+: delta)
            for (i = 1; i < 8191; i = i + 1) {
                delta = delta + fabs(b[i] - a[i]);
                a[i] = b[i];
            }
        }
    }
    print("total delta", delta);
}
