/* Compare-and-swap on one slot of an ordinary OCaml array.

   Skip-list towers are plain arrays of links; readers load them with
   ordinary array reads and writers link nodes with this CAS. It wraps
   the runtime's own field CAS, which performs the required GC write
   barrier, so the array stays an ordinary heap block. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <caml/memory.h>

value mvkv_skiplist_cas(value block, value idx, value expected, value desired)
{
  return Val_bool(
      caml_atomic_cas_field(block, Long_val(idx), expected, desired));
}
