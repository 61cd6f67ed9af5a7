// The relation type the rest of the codebase uses: the flat,
// arity-strided FlatRelation (src/storage/flat_relation.h).
#ifndef EMCALC_STORAGE_RELATION_H_
#define EMCALC_STORAGE_RELATION_H_

#include "src/storage/flat_relation.h"

namespace emcalc {

using Relation = FlatRelation;

}  // namespace emcalc

#endif  // EMCALC_STORAGE_RELATION_H_
