// Minimal CSV import/export for relation instances, so examples and tools
// can load data from files. Format: one tuple per line, comma-separated;
// fields that parse as integers become int values, everything else becomes
// a string value (surrounding whitespace trimmed; a field wrapped in
// single quotes is always a string). An integer field outside the int64
// range is a load error naming its line. Blank lines and lines starting
// with '#' are skipped.
#ifndef EMCALC_STORAGE_CSV_H_
#define EMCALC_STORAGE_CSV_H_

#include <iosfwd>
#include <string>

#include "src/base/status.h"
#include "src/storage/database.h"

namespace emcalc {

// Parses rows from `in` into relation `name` (created on first row; all
// rows must have the same arity).
Status LoadCsv(Database& db, const std::string& name, std::istream& in);

// Convenience: parse from a string.
Status LoadCsvText(Database& db, const std::string& name,
                   const std::string& text);

// Loads from a file path.
Status LoadCsvFile(Database& db, const std::string& name,
                   const std::string& path);

// Writes `rel` in the same format (ints bare, strings single-quoted).
void WriteCsv(const Relation& rel, std::ostream& out);

// Convenience: render to a string.
std::string WriteCsvText(const Relation& rel);

}  // namespace emcalc

#endif  // EMCALC_STORAGE_CSV_H_
