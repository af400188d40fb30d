//===-- ml/Dataset.cpp - Supervised training data ------------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "ml/Dataset.h"

#include <algorithm>
#include <cassert>

using namespace medley;

Dataset::Dataset(std::vector<std::string> FeatureNames)
    : Names(std::move(FeatureNames)) {}

void Dataset::add(Vec X, double Y, std::string Group) {
  assert(X.size() == Names.size() && "sample arity mismatch");
  // Online learning appends one sample per observation; growth is
  // amortized O(1) and bounded by the training-window cap upstream.
  Samples.push_back(Sample{std::move(X), Y, std::move(Group)});
}

std::vector<std::string> Dataset::groups() const {
  std::vector<std::string> Result;
  for (const Sample &S : Samples)
    if (std::find(Result.begin(), Result.end(), S.Group) == Result.end())
      Result.push_back(S.Group);
  return Result;
}

Dataset Dataset::filter(
    const std::function<bool(const Sample &)> &Keep) const {
  Dataset Out(Names);
  for (const Sample &S : Samples)
    if (Keep(S))
      Out.Samples.push_back(S);
  return Out;
}

Dataset Dataset::withoutFeature(size_t Index) const {
  assert(Index < Names.size() && "feature index out of range");
  std::vector<std::string> NewNames;
  for (size_t I = 0; I < Names.size(); ++I)
    if (I != Index)
      NewNames.push_back(Names[I]);
  Dataset Out(std::move(NewNames));
  for (const Sample &S : Samples) {
    Vec X;
    X.reserve(S.X.size() - 1);
    for (size_t I = 0; I < S.X.size(); ++I)
      if (I != Index)
        X.push_back(S.X[I]);
    Out.Samples.push_back(Sample{std::move(X), S.Y, S.Group});
  }
  return Out;
}

std::pair<Dataset, Dataset>
Dataset::splitByGroup(const std::string &Group) const {
  Dataset In(Names), Rest(Names);
  for (const Sample &S : Samples)
    (S.Group == Group ? In : Rest).Samples.push_back(S);
  return {In, Rest};
}

RowStream Dataset::rows() const {
  return {Samples.size(), Names.size(), [this](const RowVisitor &Visit) {
            for (const Sample &S : Samples)
              Visit(S.X, S.Y);
          }};
}

Vec Dataset::targets() const {
  Vec Y;
  Y.reserve(Samples.size());
  for (const Sample &S : Samples)
    Y.push_back(S.Y);
  return Y;
}

void Dataset::append(const Dataset &Other) {
  assert(Names == Other.Names && "appending datasets with mismatched schema");
  Samples.insert(Samples.end(), Other.Samples.begin(), Other.Samples.end());
}
