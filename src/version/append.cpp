#include "version/append.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "data/csv.h"
#include "data/dataset.h"
#include "data/table.h"
#include "factor/agg_cache.h"
#include "factor/decomposed.h"
#include "factor/ftree.h"

namespace reptile {
namespace {

// The schema gate (column-level 400s): the append header must be exactly the
// parent's column set. The CSV parser silently IGNORES header fields outside
// its spec, so the unknown-column check has to happen here, before parsing.
Status ValidateAppendHeader(const Table& parent, const std::string& csv_text,
                            char separator) {
  std::vector<std::string> fields = SplitCsvHeader(csv_text, separator);
  for (int c = 0; c < parent.num_columns(); ++c) {
    if (std::find(fields.begin(), fields.end(), parent.column_name(c)) == fields.end()) {
      return Status::InvalidArgument("appended rows are missing column '" +
                                     parent.column_name(c) +
                                     "' (appends cannot change the dataset schema)");
    }
  }
  for (const std::string& field : fields) {
    if (!parent.FindColumn(field).has_value()) {
      return Status::InvalidArgument("appended rows carry unknown column '" + field +
                                     "' (appends cannot change the dataset schema)");
    }
  }
  return Status::Ok();
}

// Full-depth parent f-tree for `hierarchy`, through the shared cache at the
// parent's epoch: a cold lookup builds the entry once (tree + locals, the
// same shape DrillDownState::Build produces) and leaves it resident, where
// the parent's own sessions can hit it afterwards.
HierarchyAggregatesPtr ParentFullDepthEntry(const PreparedDataset& parent, int hierarchy) {
  int depth = parent.data().hierarchy(hierarchy).depth();
  int64_t epoch = parent.epochs().at(hierarchy, depth);
  if (HierarchyAggregatesPtr entry = parent.cache().Find(epoch, hierarchy, depth)) {
    return entry;
  }
  std::vector<int> columns = parent.data().HierarchyColumns(hierarchy, depth);
  HierarchyAggregates built;
  built.tree = std::make_unique<FTree>(FTree::FromTable(parent.table(), columns));
  built.locals = std::make_unique<LocalAggregates>(built.tree.get());
  return parent.cache().Insert(epoch, hierarchy, depth, std::move(built));
}

}  // namespace

Result<AppendResult> AppendRowsCsv(const DatasetHandle& parent, const std::string& csv_text,
                                   const std::string& origin) {
  if (parent == nullptr) {
    return Status::InvalidArgument("append needs a live parent dataset version");
  }
  const Dataset& parent_data = parent->data();
  const Table& parent_table = parent->table();
  const char separator = ',';  // dataset upload's convention

  REPTILE_RETURN_IF_ERROR(ValidateAppendHeader(parent_table, csv_text, separator));

  // Parse the delta with the parent-derived spec; header order may differ,
  // WithRowsAppended matches by name.
  CsvSpec spec;
  spec.separator = separator;
  for (int c = 0; c < parent_table.num_columns(); ++c) {
    if (parent_table.is_dimension(c)) {
      spec.dimension_columns.push_back(parent_table.column_name(c));
    } else {
      spec.measure_columns.push_back(parent_table.column_name(c));
    }
  }
  CsvStreamParser parser(spec, origin);
  parser.Feed(csv_text);
  Result<Table> delta = parser.Finish();
  if (!delta.ok()) return delta.status();
  if (delta->num_rows() == 0) {
    return Status::InvalidArgument("append contains no data rows (" + origin +
                                   " has only a header)");
  }

  // Child table: parent rows first, delta re-encoded through the parent's
  // dictionaries — identical codes AND identical float summation order to a
  // from-scratch load of the concatenated CSV.
  Result<Table> appended = parent_table.WithRowsAppended(*delta);
  if (!appended.ok()) return appended.status();
  Table child_table = std::move(appended).value();

  // Dirty analysis: walk each delta row down the parent's full-depth f-tree.
  // A row matching m levels dirties depths m+1..D; clean depths keep the
  // parent's epoch so parent and child address the same cache entries.
  const int64_t child_version = parent->version() + 1;
  AppendResult result;
  result.appended_rows = delta->num_rows();
  result.total_rows = child_table.num_rows();
  AggregateEpochs epochs = parent->epochs();
  result.dirty_from.resize(static_cast<size_t>(parent_data.num_hierarchies()));
  for (int h = 0; h < parent_data.num_hierarchies(); ++h) {
    const int depth = parent_data.hierarchy(h).depth();
    HierarchyAggregatesPtr full = ParentFullDepthEntry(*parent, h);
    std::vector<int> columns = parent_data.HierarchyColumns(h, depth);
    std::vector<int32_t> path(static_cast<size_t>(depth));
    int dirty_from = depth + 1;
    for (size_t row = parent_table.num_rows();
         row < child_table.num_rows() && dirty_from > 1; ++row) {
      for (int l = 0; l < depth; ++l) {
        path[static_cast<size_t>(l)] = child_table.dim_codes(columns[static_cast<size_t>(l)])[row];
      }
      int matched = full->tree->MatchedPrefixDepth(path.data(), depth);
      dirty_from = std::min(dirty_from, matched + 1);
    }
    result.dirty_from[static_cast<size_t>(h)] = dirty_from;
    for (int d = dirty_from; d <= depth; ++d) {
      epochs.dirtied[static_cast<size_t>(h)][static_cast<size_t>(d - 1)] = child_version;
      ++result.invalidated_entries;
    }
    result.shared_entries += dirty_from - 1;
  }

  std::vector<HierarchySchema> hierarchies;
  hierarchies.reserve(static_cast<size_t>(parent_data.num_hierarchies()));
  for (int h = 0; h < parent_data.num_hierarchies(); ++h) {
    hierarchies.push_back(parent_data.hierarchy(h));
  }
  Result<Dataset> child_data = Dataset::Make(std::move(child_table), std::move(hierarchies));
  if (!child_data.ok()) return child_data.status();

  Result<DatasetHandle> child = PreparedDataset::PrepareVersion(
      parent, std::move(child_data).value(), child_version, std::move(epochs));
  if (!child.ok()) return child.status();
  result.child = std::move(child).value();
  return result;
}

}  // namespace reptile
